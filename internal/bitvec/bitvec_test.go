package bitvec

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewIsZero(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len = %d, want %d", v.Len(), n)
		}
		if !v.IsZero() || v.Weight() != 0 {
			t.Fatalf("New(%d) not zero", n)
		}
	}
}

func TestSetGetFlip(t *testing.T) {
	v := New(130)
	v.Set(0, true)
	v.Set(64, true)
	v.Set(129, true)
	for i := 0; i < 130; i++ {
		want := i == 0 || i == 64 || i == 129
		if v.Get(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, v.Get(i), want)
		}
	}
	v.Flip(0)
	v.Flip(1)
	if v.Get(0) || !v.Get(1) {
		t.Fatal("flip failed")
	}
	if v.Weight() != 3 {
		t.Fatalf("weight = %d, want 3", v.Weight())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(){
		func() { New(10).Get(10) },
		func() { New(10).Get(-1) },
		func() { New(10).Set(10, true) },
		func() { New(0).Flip(0) },
		func() { New(-1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestXor(t *testing.T) {
	a := MustFromString("1100")
	b := MustFromString("1010")
	want := MustFromString("0110")
	if got := a.Xor(b); !got.Equal(want) {
		t.Fatalf("Xor = %s, want %s", got, want)
	}
	// a and b unchanged
	if !a.Equal(MustFromString("1100")) || !b.Equal(MustFromString("1010")) {
		t.Fatal("Xor mutated operand")
	}
}

func TestNotMasksTail(t *testing.T) {
	v := New(65) // forces a partial tail word
	w := v.Not()
	if w.Weight() != 65 {
		t.Fatalf("Not of zero vector has weight %d, want 65", w.Weight())
	}
	if !w.Equal(Ones(65)) {
		t.Fatal("Not(0) != Ones")
	}
	if !w.Not().IsZero() {
		t.Fatal("double Not != identity")
	}
}

func TestHammingDistance(t *testing.T) {
	a := MustFromString("10110")
	b := MustFromString("00111")
	if d := a.HammingDistance(b); d != 2 {
		t.Fatalf("distance = %d, want 2", d)
	}
	if d := a.HammingDistance(a); d != 0 {
		t.Fatalf("self distance = %d, want 0", d)
	}
}

func TestSliceConcat(t *testing.T) {
	v := MustFromString("110101")
	left := v.Slice(0, 3)
	right := v.Slice(3, 6)
	if left.String() != "110" || right.String() != "101" {
		t.Fatalf("slices = %s, %s", left, right)
	}
	if got := left.Concat(right); !got.Equal(v) {
		t.Fatalf("concat = %s, want %s", got, v)
	}
	empty := v.Slice(2, 2)
	if empty.Len() != 0 {
		t.Fatal("empty slice has nonzero length")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 200} {
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, r.Bool())
		}
		back := bytesRoundTrip(t, v)
		if !back.Equal(v) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

// bytesRoundTrip checks that Append is the length header followed by
// the Bytes packing and parses that encoding back.
func bytesRoundTrip(t *testing.T, v Vector) Vector {
	t.Helper()
	enc := binary.LittleEndian.AppendUint32(nil, uint32(v.Len()))
	enc = append(enc, v.Bytes()...)
	if got := v.Append(nil); !bytes.Equal(got, enc) {
		t.Fatalf("n=%d: Append % x, want header+Bytes % x", v.Len(), got, enc)
	}
	var back Vector
	if err := UnmarshalVectorInto(&back, enc); err != nil {
		t.Fatalf("n=%d: %v", v.Len(), err)
	}
	return back
}

func TestUnmarshalVectorShortInput(t *testing.T) {
	var v Vector
	if err := UnmarshalVectorInto(&v, []byte{9, 0, 0, 0, 0xff}); err == nil {
		t.Fatal("expected error for short input")
	}
}

func TestFromStringErrors(t *testing.T) {
	if _, err := FromString("01x"); err == nil {
		t.Fatal("expected parse error")
	}
}

// TestSupportIndices enumerates the set bits with NextSet, the
// iteration primitive behind the ECC syndrome loops.
func TestSupportIndices(t *testing.T) {
	v := MustFromString("0100101")
	var got []int
	for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
		got = append(got, i)
	}
	want := []int{1, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("support = %v, want %v", got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustFromString("1010")
	b := a.Clone()
	b.Flip(0)
	if !a.Get(0) || b.Get(0) {
		t.Fatal("clone is not independent")
	}
}

func TestResizedReusesStorage(t *testing.T) {
	v := Ones(130)
	for _, n := range []int{130, 70, 3, 0, 128} {
		r := v.Resized(n)
		if r.Len() != n || !r.IsZero() || r.Weight() != 0 {
			t.Fatalf("Resized(%d): len %d weight %d, want an all-zero vector of %d bits", n, r.Len(), r.Weight(), n)
		}
		r.SetAll()
		if r.Weight() != n {
			t.Fatalf("Resized(%d): SetAll weight %d", n, r.Weight())
		}
		v = r
	}
	if allocs := testing.AllocsPerRun(10, func() { v = v.Resized(65).Resized(128) }); allocs != 0 {
		t.Fatalf("resizing within capacity allocates %.0f/op", allocs)
	}
	if g := v.Resized(200); g.Len() != 200 || !g.IsZero() {
		t.Fatal("growing beyond capacity must return a fresh zero vector")
	}
}

// Property: XOR is an involution and distance is XOR weight.
func TestXorProperties(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size)%200 + 1
		r := rng.New(seed)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			a.Set(i, r.Bool())
			b.Set(i, r.Bool())
		}
		x := a.Xor(b)
		return x.Xor(b).Equal(a) &&
			x.Weight() == a.HammingDistance(b) &&
			a.Xor(a).IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: weight of v plus weight of Not(v) equals length.
func TestNotWeightProperty(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size)%200 + 1
		r := rng.New(seed)
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, r.Bool())
		}
		return v.Weight()+v.Not().Weight() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(3).Xor(New(4))
}

func BenchmarkXor1024(b *testing.B) {
	v := Ones(1024)
	u := New(1024)
	for i := 0; i < b.N; i++ {
		u.XorInto(v, u)
	}
}

func BenchmarkWeight1024(b *testing.B) {
	v := Ones(1024)
	for i := 0; i < b.N; i++ {
		_ = v.Weight()
	}
}

// TestWordLevelOpsMatchBitLevel cross-checks the word-level kernels
// (SliceInto, PutAt, Concat, Bytes/UnmarshalVectorInto, XorInto, CopyInto,
// NextSet, HasPrefix) against naive per-bit references across lengths
// straddling word boundaries.
func TestWordLevelOpsMatchBitLevel(t *testing.T) {
	lengths := []int{0, 1, 7, 63, 64, 65, 127, 128, 130, 200}
	rnd := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { rnd ^= rnd << 13; rnd ^= rnd >> 7; rnd ^= rnd << 17; return rnd }
	randomVec := func(n int) Vector {
		v := New(n)
		for i := 0; i < n; i++ {
			if next()&1 == 1 {
				v.Set(i, true)
			}
		}
		return v
	}
	for _, n := range lengths {
		v := randomVec(n)

		// Bytes/Append/UnmarshalVectorInto round trip.
		if back := bytesRoundTrip(t, v); !back.Equal(v) {
			t.Fatalf("n=%d: Bytes round trip failed", n)
		}

		// Slice against per-bit reference, and SliceInto equality.
		for _, span := range [][2]int{{0, n}, {n / 3, 2 * n / 3}, {1, n}, {0, n / 2}} {
			from, to := span[0], span[1]
			if from > to || to > n {
				continue
			}
			got := v.Slice(from, to)
			ref := New(to - from)
			for i := from; i < to; i++ {
				ref.Set(i-from, v.Get(i))
			}
			if !got.Equal(ref) {
				t.Fatalf("n=%d: Slice[%d,%d) mismatch", n, from, to)
			}
		}

		// Concat against per-bit reference.
		for _, m := range []int{0, 1, 33, 64, 70} {
			u := randomVec(m)
			got := v.Concat(u)
			ref := New(n + m)
			for i := 0; i < n; i++ {
				ref.Set(i, v.Get(i))
			}
			for i := 0; i < m; i++ {
				ref.Set(n+i, u.Get(i))
			}
			if !got.Equal(ref) {
				t.Fatalf("n=%d m=%d: Concat mismatch", n, m)
			}
			// PutAt must overwrite dirty buffers completely.
			dirty := Ones(n + m)
			if n > 0 {
				dirty.PutAt(0, v)
				dirty.PutAt(n, u)
				want := v.Concat(u)
				for i := 0; i < n+m; i++ {
					if dirty.Get(i) != want.Get(i) {
						t.Fatalf("n=%d m=%d: PutAt left bit %d stale", n, m, i)
					}
				}
			}
		}

		// XorInto/CopyInto with aliasing.
		u := randomVec(n)
		want := v.Xor(u)
		dst := New(n)
		v.XorInto(u, dst)
		if !dst.Equal(want) {
			t.Fatalf("n=%d: XorInto mismatch", n)
		}
		alias := v.Clone()
		alias.XorInto(u, alias)
		if !alias.Equal(want) {
			t.Fatalf("n=%d: aliased XorInto mismatch", n)
		}
		cp := New(n)
		v.CopyInto(cp)
		if !cp.Equal(v) {
			t.Fatalf("n=%d: CopyInto mismatch", n)
		}

		// NextSet enumerates exactly the set bits, in increasing order.
		var idx, support []int
		for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
			idx = append(idx, i)
		}
		for i := 0; i < n; i++ {
			if v.Get(i) {
				support = append(support, i)
			}
		}
		if len(idx) != len(support) {
			t.Fatalf("n=%d: NextSet found %d bits, support %d", n, len(idx), len(support))
		}
		for i := range idx {
			if idx[i] != support[i] {
				t.Fatalf("n=%d: NextSet order mismatch at %d", n, i)
			}
		}

		// Word reads and SetWord writes bits 64i.. against per-bit
		// references; SetWord drops bits beyond the length.
		w := New(n)
		for i := 0; i < (n+63)/64; i++ {
			var ref uint64
			for b := 0; b < 64 && 64*i+b < n; b++ {
				if v.Get(64*i + b) {
					ref |= 1 << uint(b)
				}
			}
			if got := v.Word(i); got != ref {
				t.Fatalf("n=%d: Word(%d) = %#x, want %#x", n, i, got, ref)
			}
			stray := uint64(0)
			if valid := n - 64*i; valid < 64 {
				stray = ^uint64(0) << uint(valid)
			}
			w.SetWord(i, ref|stray)
		}
		if !w.Equal(v) || w.Weight() != v.Weight() {
			t.Fatalf("n=%d: SetWord round trip mismatch", n)
		}

		// HasPrefix against Slice+Equal.
		for _, plen := range []int{0, 1, n / 2, n} {
			if plen > n {
				continue
			}
			p := v.Slice(0, plen)
			if !v.HasPrefix(p) {
				t.Fatalf("n=%d: HasPrefix rejected its own prefix of %d", n, plen)
			}
			if plen > 0 {
				q := p.Clone()
				q.Flip(plen - 1)
				if v.HasPrefix(q) {
					t.Fatalf("n=%d: HasPrefix accepted corrupted prefix", n)
				}
			}
		}
	}
}
