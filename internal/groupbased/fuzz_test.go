package groupbased

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzUnmarshalGrouping feeds arbitrary bytes, standing in for
// attacker-written NVM, to the grouping parser: it must never panic, any
// input it accepts must be exactly what Append writes for the parsed
// grouping (one encoding per grouping), and a parse into a used
// destination must equal the parse into a zero value. The device
// scratch's folded validation must then agree with Validate, and lay
// out a grouping Validate accepts exactly as Members does.
func FuzzUnmarshalGrouping(f *testing.F) {
	f.Add((&Grouping{Assign: []int{}}).Append(nil))
	f.Add((&Grouping{Assign: []int{0, 0, 1, 2, 1, 65535}}).Append(nil))
	f.Add([]byte{3, 0, 1, 0, 2, 0}) // count claims more entries than present
	f.Add([]byte{0, 0, 4})          // trailing byte
	f.Add([]byte{5})                // truncated count
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Grouping
		err := UnmarshalGroupingInto(&g, data)
		// A destination left over from a longer grouping must parse to
		// the same result: no stale group id leaks through.
		dirty := Grouping{Assign: slices.Repeat([]int{-1}, len(g.Assign)+3)}
		errInto := UnmarshalGroupingInto(&dirty, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("parse into a zero grouping error %v, into a used one %v", err, errInto)
		}
		if err != nil {
			return
		}
		if !slices.Equal(dirty.Assign, g.Assign) {
			t.Fatalf("parse into a dirty grouping gave %v, into a zero one %v", dirty.Assign, g.Assign)
		}
		if back := g.Append(nil); !slices.Equal(back, data) {
			t.Fatalf("accepted % x, but the grouping encodes as % x", data, back)
		}
		var sc Scratch
		n := len(g.Assign)
		err, want := sc.layout(g.Assign, n), g.Validate(n)
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("scratch layout error %v, Validate %v", err, want)
		}
		if err == nil {
			checkLayout(t, &sc, &g)
		}
	})
}
