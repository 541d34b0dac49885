package device

import (
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/fuzzy"
	"repro/internal/groupbased"
	"repro/internal/rng"
	"repro/internal/tempco"
)

// flipAll inverts every bit of v in place.
func flipAll(v bitvec.Vector) {
	for i := range v.Len() {
		v.Flip(i)
	}
}

// TestReadHelperIsACopy pins the contract the attack adapters rely on,
// ReadHelper being the one read path: mutating every slice of a
// ReadHelper result leaves the device's next ReadHelper unchanged, and
// an honest App still succeeds.
func TestReadHelperIsACopy(t *testing.T) {
	code := ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3})
	// Each case enrolls one device and returns its read, a scribble
	// over every slice of one read result, and its App.
	cases := []struct {
		name   string
		enroll func(t *testing.T) (read func() any, scribble func(any), app func() bool)
	}{
		{"seqpair", func(t *testing.T) (func() any, func(any), func() bool) {
			d, err := EnrollSeqPairReuse(nil, seqParams(), rng.New(1), rng.New(2))
			if err != nil {
				t.Fatal(err)
			}
			return func() any { return d.ReadHelper() }, func(h any) {
				nvm := h.(SeqPairHelperNVM)
				for i, p := range nvm.Pairs.Pairs {
					nvm.Pairs.Pairs[i] = p.Swapped()
				}
				flipAll(nvm.Offset)
			}, d.App
		}},
		{"tempco", func(t *testing.T) (func() any, func(any), func() bool) {
			d, err := EnrollTempCoReuse(nil, tempco.Params{
				Rows: 8, Cols: 16,
				ThresholdMHz: 0.6,
				TminC:        -20, TmaxC: 80,
				Policy:     tempco.RandomSelection,
				Code:       ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
				EnrollReps: 25,
			}, rng.New(7), rng.New(8))
			if err != nil {
				t.Fatal(err)
			}
			return func() any { return d.ReadHelper() }, func(h any) {
				nvm := h.(tempco.Helper)
				for i := range nvm.Pairs {
					nvm.Pairs[i].Pair = nvm.Pairs[i].Pair.Swapped()
					nvm.Pairs[i].MaskIdx++
				}
				flipAll(nvm.Offset)
			}, d.App
		}},
		{"groupbased", func(t *testing.T) (func() any, func(any), func() bool) {
			d, err := EnrollGroupBasedReuse(nil, groupbased.Params{
				Rows: 4, Cols: 10,
				Degree:       2,
				ThresholdMHz: 0.5,
				MaxGroupSize: 6,
				Code:         code,
				EnrollReps:   25,
			}, rng.New(9), rng.New(10))
			if err != nil {
				t.Fatal(err)
			}
			return func() any { return d.ReadHelper() }, func(h any) {
				nvm := h.(groupbased.Helper)
				for i := range nvm.Poly.Beta {
					nvm.Poly.Beta[i] += 1
				}
				for i := range nvm.Grouping.Assign {
					nvm.Grouping.Assign[i]++
				}
				flipAll(nvm.Offset)
			}, d.App
		}},
		{"distillerpair", func(t *testing.T) (func() any, func(any), func() bool) {
			d, err := EnrollDistillerPairReuse(nil, DistillerPairParams{
				Rows: 4, Cols: 10,
				Degree:     2,
				Mode:       MaskedChain,
				K:          5,
				Code:       code,
				EnrollReps: 25,
			}, rng.New(11), rng.New(12))
			if err != nil {
				t.Fatal(err)
			}
			return func() any { return d.ReadHelper() }, func(h any) {
				nvm := h.(DistillerPairHelperNVM)
				for i := range nvm.Poly.Beta {
					nvm.Poly.Beta[i] += 1
				}
				for i := range nvm.Masking.Selected {
					nvm.Masking.Selected[i]++
				}
				flipAll(nvm.Offset)
			}, d.App
		}},
		{"fuzzy", func(t *testing.T) (func() any, func(any), func() bool) {
			d, err := EnrollFuzzy(FuzzyParams{
				Rows: 8, Cols: 16,
				Extractor:  fuzzy.Params{Code: code, Robust: true},
				EnrollReps: 20,
			}, rng.New(13), rng.New(14))
			if err != nil {
				t.Fatal(err)
			}
			return func() any { return d.ReadHelper() }, func(h any) {
				nvm := h.(fuzzy.Helper)
				flipAll(nvm.W)
				for i := range nvm.Tag {
					nvm.Tag[i] ^= 0xff
				}
			}, d.App
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			read, scribble, app := tc.enroll(t)
			want := read()
			h := read()
			scribble(h)
			if reflect.DeepEqual(h, want) {
				t.Fatal("the scribble changed nothing")
			}
			if got := read(); !reflect.DeepEqual(got, want) {
				t.Fatalf("mutating a ReadHelper result changed the device's NVM:\ngot  %+v\nwant %+v", got, want)
			}
			if !app() {
				t.Fatal("honest App failed after the ReadHelper result was mutated")
			}
		})
	}
}
