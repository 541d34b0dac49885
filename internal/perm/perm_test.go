package perm

import (
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// tableI is the paper's Table I verbatim: order, compact coding, Kendall
// coding for a group of four ROs labeled A..D.
var tableI = []struct {
	order   string
	compact string
	kendall string
}{
	{"ABCD", "00000", "000000"},
	{"ABDC", "00001", "000001"},
	{"ACBD", "00010", "000100"},
	{"ACDB", "00011", "000110"},
	{"ADBC", "00100", "000011"},
	{"ADCB", "00101", "000111"},
	{"BACD", "00110", "100000"},
	{"BADC", "00111", "100001"},
	{"BCAD", "01000", "110000"},
	{"BCDA", "01001", "111000"},
	{"BDAC", "01010", "101001"},
	{"BDCA", "01011", "111001"},
	{"CABD", "01100", "010100"},
	{"CADB", "01101", "010110"},
	{"CBAD", "01110", "110100"},
	{"CBDA", "01111", "111100"},
	{"CDAB", "10000", "011110"},
	{"CDBA", "10001", "111110"},
	{"DABC", "10010", "001011"},
	{"DACB", "10011", "001111"},
	{"DBAC", "10100", "101011"},
	{"DBCA", "10101", "111011"},
	{"DCAB", "10110", "011111"},
	{"DCBA", "10111", "111111"},
}

func orderFromLabels(s string) []int {
	o := make([]int, len(s))
	for i, r := range s {
		o[i] = int(r - 'A')
	}
	return o
}

// TestTableI verifies both codings bit-for-bit against the paper.
func TestTableI(t *testing.T) {
	for _, row := range tableI {
		o := orderFromLabels(row.order)
		if got := CompactEncode(o).String(); got != row.compact {
			t.Errorf("%s: compact = %s, want %s", row.order, got, row.compact)
		}
		if got := KendallEncode(o).String(); got != row.kendall {
			t.Errorf("%s: kendall = %s, want %s", row.order, got, row.kendall)
		}
	}
}

func TestTableIDecodesBack(t *testing.T) {
	for _, row := range tableI {
		want := orderFromLabels(row.order)
		// The compact coding is the rank, most significant bit first.
		var rank uint64
		cv := CompactEncode(want)
		for i := 0; i < cv.Len(); i++ {
			rank = rank<<1 | uint64(cv.Bit(i))
		}
		if rank != Rank(want) {
			t.Fatalf("%s: compact coding holds rank %d, want %d", row.order, rank, Rank(want))
		}
		co := Unrank(rank, 4)
		ko, err := KendallDecode(KendallEncode(want), 4)
		if err != nil {
			t.Fatalf("%s: kendall decode: %v", row.order, err)
		}
		for i := range want {
			if co[i] != want[i] || ko[i] != want[i] {
				t.Fatalf("%s: decode mismatch compact=%v kendall=%v", row.order, co, ko)
			}
		}
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		n := int(sizeRaw)%8 + 1
		r := rng.New(seed)
		o := make([]int, n)
		r.Perm(o)
		back := Unrank(Rank(o), n)
		for i := range o {
			if back[i] != o[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRankLexicographicOrder(t *testing.T) {
	// Ranks 0..n!-1 enumerate permutations in lexicographic order.
	orders := AllOrders(4)
	if len(orders) != 24 {
		t.Fatalf("AllOrders(4) has %d entries", len(orders))
	}
	for r, o := range orders {
		if Rank(o) != uint64(r) {
			t.Fatalf("rank of %v = %d, want %d", o, Rank(o), r)
		}
	}
	// Lexicographic: each successive order compares greater.
	for i := 1; i < len(orders); i++ {
		if !lexLess(orders[i-1], orders[i]) {
			t.Fatalf("orders %d and %d out of lexicographic order", i-1, i)
		}
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestKendallAdjacentFlipChangesOneBit(t *testing.T) {
	// The design rationale: a flip of two neighboring positions changes
	// exactly one Kendall bit (but possibly many compact bits).
	f := func(seed uint64, sizeRaw, posRaw uint8) bool {
		n := int(sizeRaw)%6 + 2
		r := rng.New(seed)
		o := make([]int, n)
		r.Perm(o)
		p := int(posRaw) % (n - 1)
		flipped := append([]int(nil), o...)
		flipped[p], flipped[p+1] = flipped[p+1], flipped[p]
		return KendallEncode(o).HammingDistance(KendallEncode(flipped)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKendallDistanceProperties(t *testing.T) {
	a := []int{0, 1, 2, 3}
	d := []int{3, 2, 1, 0}
	// The Hamming distance of two Kendall codings counts the pairs the
	// orders disagree on: zero for equal orders, every pair for a
	// reversal.
	if got := KendallEncode(a).HammingDistance(KendallEncode(a)); got != 0 {
		t.Fatalf("self distance = %d, want 0", got)
	}
	if got := KendallEncode(a).HammingDistance(KendallEncode(d)); got != 6 {
		t.Fatalf("reversal distance = %d, want 6", got)
	}
}

func TestKendallDecodeRejectsNonTransitive(t *testing.T) {
	// A > B, B > C, C > A is a cycle: bits for pairs (0,1),(0,2),(1,2)
	// = 0 (A first), 1 (C before A), 0 (B before C). wins: A beats B,
	// C beats A, B beats C -> all wins equal 1, not a permutation.
	v := bitvec.MustFromString("010")
	if _, err := KendallDecode(v, 3); err == nil {
		t.Fatal("expected rejection of cyclic tournament")
	}
}

func TestOrderOf(t *testing.T) {
	o := OrderOf([]float64{3.5, 9.9, 1.1, 7.7})
	want := []int{1, 3, 0, 2}
	for i := range want {
		if o[i] != want[i] {
			t.Fatalf("order = %v, want %v", o, want)
		}
	}
}

func TestOrderOfTieBreaksTowardLowerIndex(t *testing.T) {
	o := OrderOf([]float64{5, 5, 5})
	want := []int{0, 1, 2}
	for i := range want {
		if o[i] != want[i] {
			t.Fatalf("tied order = %v, want %v", o, want)
		}
	}
}

func TestOrderOfRandomIsSorted(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		n := int(sizeRaw)%20 + 1
		r := rng.New(seed)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Norm()
		}
		o := OrderOf(vals)
		for i := 1; i < n; i++ {
			if vals[o[i-1]] < vals[o[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog2Factorial(t *testing.T) {
	if Log2Factorial(1) != 0 {
		t.Fatal("log2(1!) != 0")
	}
	// log2(4!) = log2(24) ~ 4.585
	if v := Log2Factorial(4); v < 4.58 || v > 4.59 {
		t.Fatalf("log2(4!) = %v", v)
	}
	if CompactBits(4) != 5 {
		t.Fatalf("CompactBits(4) = %d", CompactBits(4))
	}
	// Powers of two must not round up: 2! = 2 needs exactly 1 bit.
	if CompactBits(2) != 1 {
		t.Fatalf("CompactBits(2) = %d", CompactBits(2))
	}
}

func TestKendallBits(t *testing.T) {
	for n, want := range map[int]int{2: 1, 3: 3, 4: 6, 5: 10} {
		if KendallBits(n) != want {
			t.Errorf("KendallBits(%d) = %d, want %d", n, KendallBits(n), want)
		}
	}
}

func TestValidOrderPanics(t *testing.T) {
	for _, bad := range [][]int{{0, 0}, {1, 2}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: expected panic", bad)
				}
			}()
			KendallEncode(bad)
		}()
	}
}

func TestCompactCodingNonUniformity(t *testing.T) {
	// The paper: "|Gj|! is not a power of two, given |Gj| > 2" — so the
	// compact coding cannot be uniform either. Quantify: 24 of 32
	// patterns used for n=4.
	used := make(map[string]bool)
	for _, o := range AllOrders(4) {
		used[CompactEncode(o).String()] = true
	}
	if len(used) != 24 {
		t.Fatalf("%d distinct compact codings, want 24", len(used))
	}
}

func TestKendallCodingSparsity(t *testing.T) {
	// Only n! of the 2^(n(n-1)/2) Kendall patterns are valid.
	valid := 0
	for pattern := 0; pattern < 64; pattern++ {
		v := bitvec.New(6)
		for i := 0; i < 6; i++ {
			if pattern>>uint(i)&1 == 1 {
				v.Set(i, true)
			}
		}
		if _, err := KendallDecode(v, 4); err == nil {
			valid++
		}
	}
	if valid != 24 {
		t.Fatalf("%d valid Kendall patterns, want 24", valid)
	}
}

func BenchmarkKendallEncode8(b *testing.B) {
	o := []int{7, 2, 5, 0, 3, 6, 1, 4}
	for i := 0; i < b.N; i++ {
		_ = KendallEncode(o)
	}
}

func BenchmarkRank10(b *testing.B) {
	o := []int{9, 2, 5, 0, 3, 6, 1, 4, 8, 7}
	for i := 0; i < b.N; i++ {
		_ = Rank(o)
	}
}
