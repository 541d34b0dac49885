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

// memoCase is one block decode the memo fuzz target replays: the code,
// the helper offset and the response, decoded either through a
// Sketch's Reproduce or straight through block.DecodeInto.
type memoCase struct {
	block     *block
	off, resp bitvec.Vector
	reproduce bool
}

// reproduceCase runs mc through sk, sized to mc's block geometry.
func reproduceCase(sk *Sketch, mc memoCase) (bitvec.Vector, int, bool) {
	sk.Size(mc.block.inner, mc.block.N())
	return reproduceFrom(sk, mc.off, mc.resp)
}

// checkAgainstFresh runs mc on the shared sketch (a direct decode on
// its workspace) and on a fresh one and fails unless (output,
// corrected, ok) agree. A direct decode is also checked against the
// inner code's decode on a fresh workspace, block by block: a failed
// block must hold its received bits.
func checkAgainstFresh(t *testing.T, sk *Sketch, mc memoCase) {
	t.Helper()
	b := mc.block
	var got, want bitvec.Vector
	var gotC, wantC int
	var gotOK, wantOK bool
	if mc.reproduce {
		var fresh Sketch
		got, gotC, gotOK = reproduceCase(sk, mc)
		want, wantC, wantOK = reproduceCase(&fresh, mc)
	} else {
		var fresh Workspace
		got, want = bitvec.New(b.N()), bitvec.New(b.N())
		gotC, gotOK = b.DecodeInto(&sk.ws, mc.resp, got)
		wantC, wantOK = b.DecodeInto(&fresh, mc.resp, want)
	}
	if gotC != wantC || gotOK != wantOK || !got.Equal(want) {
		t.Fatalf("%s reproduce=%v: shared workspace gave (%d, %v), fresh (%d, %v); words equal=%v",
			b, mc.reproduce, gotC, gotOK, wantC, wantOK, got.Equal(want))
	}
	if mc.reproduce {
		return
	}
	in := b.inner.N()
	total, allOK := 0, true
	for i := 0; i < b.blocks; i++ {
		recv := mc.resp.Slice(i*in, (i+1)*in)
		cw, c, ok := decode(b.inner, recv)
		if !got.Slice(i*in, (i+1)*in).Equal(cw) {
			t.Fatalf("%s block %d (ok=%v): output differs from the inner decode", b, i, ok)
		}
		total += c
		allOK = allOK && ok
	}
	if gotC != total || gotOK != allOK {
		t.Fatalf("%s: (%d, %v) differs from the per-block decode (%d, %v)", b, gotC, gotOK, total, allOK)
	}
}

// FuzzDecodeMemo drives one Sketch through a fuzzer-chosen sequence of
// Reproduce calls and block.DecodeInto calls on its workspace, and
// checks every result against a fresh Sketch's or Workspace's. seed draws the initial words; each op
// byte picks an action from its low three bits, with its high bits as
// the argument:
//
//	0: repeat the last call
//	1: flip one response bit
//	2: change the offset, same response
//	3: switch the inner code
//	4: switch the block count
//	5: toggle Sketch.Reproduce / direct block.DecodeInto
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
			mc.block = &block{inner: inners[inner], blocks: blocks}
			mc.off = randWord(mc.block.N())
			msg := randWord(mc.block.K())
			mc.resp = mc.off.Xor(encode(mc.block, msg))
			for e := src.Intn(3); e > 0; e-- {
				mc.resp.Flip(src.Intn(mc.resp.Len()))
			}
			prev = mc
		}
		rebuild()
		var sk Sketch
		checkAgainstFresh(t, &sk, mc)
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
				in := mc.block.inner.N()
				at := arg % mc.block.blocks * in
				for e := 0; e <= mc.block.T(); e++ {
					mc.resp.Flip(at + (e*7+arg)%in)
				}
			case 7:
				if prev.resp.Len() == mc.resp.Len() {
					mc.resp, prev.resp = prev.resp, mc.resp
				}
			}
			checkAgainstFresh(t, &sk, mc)
		}
	})
}

// TestDecodeMemoSteadyStateAllocs is the memo's and the sketch's
// allocation fence: one Sketch re-sized to 1 to 4 blocks of two inner
// codes in turn, enrolling, reproducing and decoding blocks directly on
// its workspace, allocates nothing once it has seen the largest shape,
// whether the words repeat or change.
func TestDecodeMemoSteadyStateAllocs(t *testing.T) {
	src := rng.New(3)
	var cases []memoCase
	for _, inner := range []Code{MustBCH(BCHConfig{M: 5, T: 3}), MustBCH(BCHConfig{M: 6, T: 3})} {
		for blocks := 1; blocks <= 4; blocks++ {
			b := &block{inner: inner, blocks: blocks}
			resp := bitvec.New(b.N())
			for i := 0; i < resp.Len(); i++ {
				resp.Set(i, src.Bool())
			}
			cases = append(cases, memoCase{block: b, off: encode(b, bitvec.New(b.K())), resp: resp, reproduce: true})
		}
	}
	var sk Sketch
	dst := bitvec.New(4 * 63)
	run := func() {
		for _, mc := range cases {
			reproduceCase(&sk, mc)
			sk.Enroll(src)
			mc.resp.Flip(0)
			mc.block.DecodeInto(&sk.ws, mc.resp, dst.Resized(mc.block.N()))
		}
	}
	run()
	run()
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Fatalf("memoized decodes allocate %.1f per round in steady state, want 0", got)
	}
}

// TestDecodeMemoThrowawayAllocs pins what a one-shot sketch costs, the
// shape of fuzzy.Reconstruct, the enrollments and the attacks' offline
// checks: a fresh Sketch sized, enrolled and reproduced once. The
// bounds are the counts measured when the sketch replaced the
// allocating code-offset functions.
func TestDecodeMemoThrowawayAllocs(t *testing.T) {
	for _, c := range []struct {
		code          Code
		streamLen     int
		enroll, reprd float64
	}{
		{MustBCH(BCHConfig{M: 5, T: 3, Expurgate: true}), 93, 7, 8},
		{MustBCH(BCHConfig{M: 6, T: 3}), 126, 7, 8},
		{NewGolay(), 46, 6, 7},
		{NewRepetition(2), 20, 6, 7},
		{MustBCH(BCHConfig{M: 5, T: 3}), 31, 7, 8},
	} {
		src := rng.New(1)
		resp := randMsg(src, c.streamLen)
		var off bitvec.Vector
		enroll := func() {
			var sk Sketch
			sk.Size(c.code, c.streamLen)
			sk.Stream().PutAt(0, resp)
			off = sk.Enroll(src)
		}
		reproduce := func() {
			var sk Sketch
			sk.Size(c.code, c.streamLen)
			reproduceFrom(&sk, off, resp)
		}
		enroll()
		for _, m := range []struct {
			name string
			want float64
			fn   func()
		}{
			{"enroll", c.enroll, enroll},
			{"reproduce", c.reprd, reproduce},
		} {
			if got := testing.AllocsPerRun(20, m.fn); got > m.want {
				t.Errorf("%s over %d bits: a one-shot %s allocates %.1f, want at most %.0f", c.code, c.streamLen, m.name, got, m.want)
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
					wantCW, wantC, wantOK := decode(ref, w)
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
