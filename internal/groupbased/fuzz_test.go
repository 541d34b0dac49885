package groupbased

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzUnmarshalGrouping feeds arbitrary bytes, standing in for
// attacker-written NVM, to the grouping parser: it must never panic, and
// any input it accepts must re-marshal to bytes that decode to an equal
// grouping, and parse into a used destination as it parses fresh. The device scratch's folded validation must then agree with
// Validate, and lay out a grouping Validate accepts exactly as Members
// does.
func FuzzUnmarshalGrouping(f *testing.F) {
	f.Add((&Grouping{Assign: []int{}}).Marshal())
	f.Add((&Grouping{Assign: []int{0, 0, 1, 2, 1, 65535}}).Marshal())
	f.Add([]byte{3, 0, 1, 0, 2, 0}) // count claims more entries than present
	f.Add([]byte{0, 0, 4})          // trailing byte
	f.Add([]byte{5})                // truncated count
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalGrouping(data)
		// A destination left over from a longer grouping must parse to
		// the fresh result: no stale group id leaks through.
		dirty := Grouping{Assign: slices.Repeat([]int{-1}, len(g.Assign)+3)}
		errInto := UnmarshalGroupingInto(&dirty, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("fresh parse error %v, parse-into error %v", err, errInto)
		}
		if err != nil {
			return
		}
		if !slices.Equal(dirty.Assign, g.Assign) {
			t.Fatalf("parse into a dirty grouping gave %v, fresh parse %v", dirty.Assign, g.Assign)
		}
		back, err := UnmarshalGrouping(g.Marshal())
		if err != nil {
			t.Fatalf("re-marshaled grouping rejected: %v", err)
		}
		if !slices.Equal(back.Assign, g.Assign) {
			t.Fatalf("round trip changed the grouping: %v -> %v", g.Assign, back.Assign)
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
