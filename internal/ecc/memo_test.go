package ecc

import (
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// memoInners are the inner codes the memo tests switch between: BCH-31
// with and without expurgation, BCH-63, Golay and a repetition code.
func memoInners() []Code {
	return []Code{
		MustBCH(BCHConfig{M: 5, T: 3}),
		MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}),
		MustBCH(BCHConfig{M: 6, T: 3}),
		NewGolay(),
		NewRepetition(2),
	}
}

// memoCase is one Block decode the memo fuzz target replays: the code,
// the helper offset and the response, decoded either through
// ReproduceInto or straight through Block.DecodeInto.
type memoCase struct {
	block     *Block
	off, resp bitvec.Vector
	reproduce bool
}

// checkAgainstFresh runs mc on the shared workspace and on a fresh one
// and fails unless (dst, corrected, ok) agree. A direct decode is also
// checked against the inner code's allocating Decode, block by block:
// a failed block must hold its received bits.
func checkAgainstFresh(t *testing.T, ws *Workspace, mc memoCase) {
	t.Helper()
	b := mc.block
	got, want := bitvec.New(b.N()), bitvec.New(b.N())
	var fresh Workspace
	var gotC, wantC int
	var gotOK, wantOK bool
	if mc.reproduce {
		gotC, gotOK = ReproduceInto(b, Offset{W: mc.off}, mc.resp, ws, got)
		wantC, wantOK = ReproduceInto(b, Offset{W: mc.off}, mc.resp, &fresh, want)
	} else {
		gotC, gotOK = b.DecodeInto(ws, mc.resp, got)
		wantC, wantOK = b.DecodeInto(&fresh, mc.resp, want)
	}
	if gotC != wantC || gotOK != wantOK || !got.Equal(want) {
		t.Fatalf("%s reproduce=%v: shared workspace gave (%d, %v), fresh (%d, %v); words equal=%v",
			b, mc.reproduce, gotC, gotOK, wantC, wantOK, got.Equal(want))
	}
	if mc.reproduce {
		return
	}
	in := b.Inner().N()
	total, allOK := 0, true
	for i := 0; i < b.blocks; i++ {
		recv := mc.resp.Slice(i*in, (i+1)*in)
		cw, c, ok := b.Inner().Decode(recv)
		if !got.Slice(i*in, (i+1)*in).Equal(cw) {
			t.Fatalf("%s block %d (ok=%v): output differs from the inner Decode", b, i, ok)
		}
		total += c
		allOK = allOK && ok
	}
	if gotC != total || gotOK != allOK {
		t.Fatalf("%s: (%d, %v) differs from the per-block Decode (%d, %v)", b, gotC, gotOK, total, allOK)
	}
}

// FuzzDecodeMemo drives one Workspace through a fuzzer-chosen sequence
// of ReproduceInto and Block.DecodeInto calls and checks every result
// against a fresh Workspace's. seed draws the initial words; each op
// byte picks an action from its low three bits, with its high bits as
// the argument:
//
//	0: repeat the last call
//	1: flip one response bit
//	2: change the offset, same response
//	3: switch the inner code
//	4: switch the block count
//	5: toggle ReproduceInto / direct Block.DecodeInto
//	6: put t+1 errors into one block (ok=false for the BCH codes)
//	7: go back to the previous response
func FuzzDecodeMemo(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 1, 0, 9, 0})
	f.Add(uint64(2), []byte{5, 0, 6, 0, 7, 0, 5, 6, 0})
	f.Add(uint64(3), []byte{3, 0, 11, 0, 19, 0, 27, 0, 35, 0})
	f.Add(uint64(4), []byte{4, 0, 12, 0, 20, 0, 4, 0, 3, 4, 0})
	f.Add(uint64(5), []byte{2, 0, 10, 0, 5, 2, 0, 7, 7, 0})
	f.Add(uint64(6), []byte{14, 0, 22, 0, 5, 14, 0, 1, 7})
	inners := memoInners()

	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		src := rng.New(seed)
		inner, blocks := 0, 1
		var mc, prev memoCase
		randWord := func(n int) bitvec.Vector {
			v := bitvec.New(n)
			for i := 0; i < n; i++ {
				v.Set(i, src.Bool())
			}
			return v
		}
		// rebuild draws a fresh offset and a response within a few
		// errors of it on the current code.
		rebuild := func() {
			mc.block = NewBlock(inners[inner], blocks)
			mc.off = randWord(mc.block.N())
			msg := randWord(mc.block.K())
			mc.resp = mc.off.Xor(mc.block.Encode(msg))
			for e := src.Intn(3); e > 0; e-- {
				mc.resp.Flip(src.Intn(mc.resp.Len()))
			}
			prev = mc
		}
		rebuild()
		var ws Workspace
		checkAgainstFresh(t, &ws, mc)
		for _, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 1:
				prev = mc
				mc.resp = mc.resp.Clone()
				mc.resp.Flip(arg % mc.resp.Len())
			case 2:
				mc.off = mc.off.Clone()
				mc.off.Flip(arg % mc.off.Len())
			case 3:
				inner = arg % len(inners)
				rebuild()
			case 4:
				blocks = 1 + arg%4
				rebuild()
			case 5:
				mc.reproduce = !mc.reproduce
			case 6:
				prev = mc
				mc.resp = mc.resp.Clone()
				in := mc.block.Inner().N()
				at := arg % mc.block.blocks * in
				for e := 0; e <= mc.block.T(); e++ {
					mc.resp.Flip(at + (e*7+arg)%in)
				}
			case 7:
				if prev.resp.Len() == mc.resp.Len() {
					mc.resp, prev.resp = prev.resp, mc.resp
				}
			}
			checkAgainstFresh(t, &ws, mc)
		}
	})
}

// TestDecodeMemoSteadyStateAllocs is the memo's allocation fence: one
// Workspace decoding Blocks of 1 to 4 blocks over two inner codes in
// turn allocates nothing once it has seen the largest shape, whether
// the words repeat or change.
func TestDecodeMemoSteadyStateAllocs(t *testing.T) {
	src := rng.New(3)
	var cases []memoCase
	for _, inner := range []Code{MustBCH(BCHConfig{M: 5, T: 3}), MustBCH(BCHConfig{M: 6, T: 3})} {
		for blocks := 1; blocks <= 4; blocks++ {
			b := NewBlock(inner, blocks)
			resp := bitvec.New(b.N())
			for i := 0; i < resp.Len(); i++ {
				resp.Set(i, src.Bool())
			}
			cases = append(cases, memoCase{block: b, off: b.Encode(bitvec.New(b.K())), resp: resp, reproduce: true})
		}
	}
	var ws Workspace
	dst := bitvec.New(4 * 63)
	run := func() {
		for _, mc := range cases {
			d := dst.Resized(mc.block.N())
			ReproduceInto(mc.block, Offset{W: mc.off}, mc.resp, &ws, d)
			mc.resp.Flip(0)
			mc.block.DecodeInto(&ws, mc.resp, d)
		}
	}
	run()
	run()
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Fatalf("memoized decodes allocate %.1f per round in steady state, want 0", got)
	}
}

// TestDecodeMemoThrowawayAllocs pins what a one-shot decode costs: the
// allocating Decode, IsCodeword and ConsistentWith each run on a
// throwaway Workspace, which must pay nothing for the memo. The counts
// are those measured before the memo existed.
func TestDecodeMemoThrowawayAllocs(t *testing.T) {
	for _, c := range []struct {
		code                        Code
		codeword, noisy, consistent float64
	}{
		{NewBlock(MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}), 3), 5, 10, 6},
		{NewBlock(MustBCH(BCHConfig{M: 6, T: 3}), 2), 5, 10, 6},
		{NewBlock(NewGolay(), 2), 4, 4, 5},
		{NewBlock(NewRepetition(2), 4), 4, 4, 5},
		{MustBCH(BCHConfig{M: 5, T: 3}), 2, 7, 3},
	} {
		src := rng.New(1)
		msg := bitvec.New(c.code.K())
		for i := 0; i < msg.Len(); i++ {
			msg.Set(i, src.Bool())
		}
		cw := c.code.Encode(msg)
		noisy := cw.Clone()
		noisy.Flip(1)
		zero := bitvec.New(c.code.N())
		for _, m := range []struct {
			name string
			want float64
			fn   func()
		}{
			{"IsCodeword", c.codeword, func() { IsCodeword(c.code, cw) }},
			{"Decode", c.codeword, func() { c.code.Decode(cw) }},
			{"Decode(noisy)", c.noisy, func() { c.code.Decode(noisy) }},
			{"ConsistentWith", c.consistent, func() { ConsistentWith(c.code, Offset{W: cw}, zero) }},
		} {
			if got := testing.AllocsPerRun(20, m.fn); got > m.want {
				t.Errorf("%s: %s allocates %.1f, want at most %.0f", c.code, m.name, got, m.want)
			}
		}
	}
}

// TestNewBCHInterned pins the shared-instance contract: equal configs
// return one pointer, and a failed construction is not cached.
func TestNewBCHInterned(t *testing.T) {
	cfg := BCHConfig{M: 6, T: 4, Shorten: 5}
	a, b := MustBCH(cfg), MustBCH(cfg)
	if a != b {
		t.Fatalf("%s built twice", a)
	}
	if c := MustBCH(BCHConfig{M: 6, T: 4, Shorten: 5, Expurgate: true}); c == a {
		t.Fatal("an expurgated config shares the plain code's instance")
	}
	bad := BCHConfig{M: 4, T: 8}
	for i := 0; i < 2; i++ {
		if got, err := NewBCH(bad); err == nil || got != nil {
			t.Fatalf("call %d: NewBCH(%+v) = (%v, %v), want an error", i, bad, got, err)
		}
	}
}

// TestBCHSharedConcurrent builds one configuration from several
// goroutines at once and decodes with the shared instance, each
// goroutine on its own Workspace. Under -race it checks that a *BCH is
// read-only after construction; every goroutine must get the same
// instance and the same decode results as a serial reference.
func TestBCHSharedConcurrent(t *testing.T) {
	cfg := BCHConfig{M: 7, T: 6, Shorten: 2, Expurgate: true}
	ref, err := newBCH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	words := make([]bitvec.Vector, 16)
	for i := range words {
		words[i] = noisyCodeword(t, ref, src, i%(cfg.T+3))
	}
	const goroutines = 4
	codes := make([]*BCH, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := MustBCH(cfg)
			codes[g] = b
			var ws Workspace
			dst := bitvec.New(b.N())
			for round := 0; round < 20; round++ {
				for _, w := range words {
					wantCW, wantC, wantOK := ref.Decode(w)
					gotC, gotOK := b.DecodeInto(&ws, w, dst)
					if gotC != wantC || gotOK != wantOK || !dst.Equal(wantCW) {
						t.Errorf("goroutine %d: shared decode differs from the reference", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, b := range codes {
		if b != codes[0] {
			t.Fatalf("goroutine %d got its own instance", g)
		}
	}
}
