package repro

// Cross-module integration tests: attacks under non-nominal operating
// conditions, alternative ECC choices, and full helper-NVM image round
// trips through the serialization layer — the flows a downstream user
// would exercise first.

import (
	"context"
	"testing"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/helperdata"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/tempco"
)

func TestSeqPairAttackAtElevatedTemperature(t *testing.T) {
	// The §VI-A attack makes no assumption about the environment; it
	// must work unchanged on a device sitting at 45 °C and 1.25 V.
	d, err := device.EnrollSeqPairReuse(nil, device.SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.8,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3, Expurgate: true}),
		EnrollReps:   20,
	}, rng.New(301), rng.New(302))
	if err != nil {
		t.Fatal(err)
	}
	d.SetEnvironment(silicon.Environment{TempC: 45, VoltageV: 1.25})
	truth := d.TrueKey()
	res, err := attack.Run(context.Background(), "seqpair", attack.NewSeqPairTarget(d),
		attack.Options{Dist: attack.DefaultDistinguisher()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Key.Equal(truth) {
		t.Fatalf("attack at 45C failed:\n got %s\nwant %s", res.Key, truth)
	}
}

func TestSeqPairAttackWithRepetitionCode(t *testing.T) {
	// The attack framework is code-agnostic: a device deploying the
	// humble (7,1) repetition sketch falls the same way. The repetition
	// code contains all-ones, but the padded final block breaks the
	// complement pattern, so recovery resolves exactly here too.
	d, err := device.EnrollSeqPairReuse(nil, device.SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.8,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.NewRepetition(3),
		EnrollReps:   20,
	}, rng.New(311), rng.New(312))
	if err != nil {
		t.Fatal(err)
	}
	truth := d.TrueKey()
	res, err := attack.Run(context.Background(), "seqpair", attack.NewSeqPairTarget(d),
		attack.Options{Dist: attack.DefaultDistinguisher()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Key.Equal(truth) && !(res.Ambiguous && res.Key.Equal(truth.Not())) {
		t.Fatalf("repetition-code attack failed (ambiguous=%v)", res.Ambiguous)
	}
}

func TestTempCoHelperSurvivesNVMImage(t *testing.T) {
	// Enroll, serialize the full helper through the NVM image format,
	// parse it back, write it into the device, and verify the device
	// still reconstructs its key — the full storage round trip the
	// paper's §VII-C asks implementations to specify.
	p := tempco.Params{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.6,
		TminC:        -20, TmaxC: 80,
		Policy:     tempco.RandomSelection,
		Code:       ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
		EnrollReps: 25,
	}
	d, err := device.EnrollTempCoReuse(nil, p, rng.New(321), rng.New(322))
	if err != nil {
		t.Fatal(err)
	}
	h := d.ReadHelper()

	im := helperdata.NewImage()
	im.Set(helperdata.SectionTempCo, h.Append(nil))
	raw, err := im.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := helperdata.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := back.SectionRO(helperdata.SectionTempCo)
	if !ok {
		t.Fatal("section missing after round trip")
	}
	var h2 tempco.Helper
	if err := tempco.UnmarshalHelperInto(&h2, blob); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteHelper(h2); err != nil {
		t.Fatalf("round-tripped helper rejected: %v", err)
	}
	ok10 := 0
	for i := 0; i < 10; i++ {
		if d.App() {
			ok10++
		}
	}
	if ok10 < 8 {
		t.Fatalf("device broken after NVM round trip: %d/10", ok10)
	}
}

func TestAttackSurvivesHelperImageManipulationPath(t *testing.T) {
	// The attacker's manipulations expressed through the byte-level NVM
	// path: read image, parse, mutate one pair order, re-serialize,
	// parse again, write. Equivalent to the in-memory manipulation and
	// the checksum recomputes trivially (it guards corruption, not
	// attackers).
	d, err := device.EnrollSeqPairReuse(nil, device.SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.8,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
		EnrollReps:   20,
	}, rng.New(331), rng.New(332))
	if err != nil {
		t.Fatal(err)
	}
	h := d.ReadHelper()

	im := helperdata.NewImage()
	im.Set(helperdata.SectionSeqPairs, h.Pairs.Append(nil))
	im.Set(helperdata.SectionOffset, h.Offset.Append(nil))
	raw, err := im.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// Attacker side: parse, mutate, re-serialize.
	parsed, err := helperdata.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := parsed.SectionRO(helperdata.SectionSeqPairs)
	var pairsHelper pairing.SeqPairHelper
	if err := pairing.UnmarshalSeqPairInto(&pairsHelper, blob); err != nil {
		t.Fatal(err)
	}
	tcap := d.Code().T()
	for i := 0; i <= tcap; i++ {
		pairsHelper.Pairs[i] = pairsHelper.Pairs[i].Swapped()
	}
	parsed.Set(helperdata.SectionSeqPairs, pairsHelper.Append(nil))
	raw2, err := parsed.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// Device side: parse the manipulated image and install it.
	final, err := helperdata.Unmarshal(raw2)
	if err != nil {
		t.Fatal(err)
	}
	blob2, _ := final.SectionRO(helperdata.SectionSeqPairs)
	var manipPairs pairing.SeqPairHelper
	if err := pairing.UnmarshalSeqPairInto(&manipPairs, blob2); err != nil {
		t.Fatal(err)
	}
	offBytes, _ := final.SectionRO(helperdata.SectionOffset)
	var offset bitvec.Vector
	if err := bitvec.UnmarshalVectorInto(&offset, offBytes); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteHelper(device.SeqPairHelperNVM{Pairs: manipPairs, Offset: offset}); err != nil {
		t.Fatal(err)
	}
	// t+1 deterministic inversions: the app must fail nearly always.
	fails := 0
	for i := 0; i < 10; i++ {
		if !d.App() {
			fails++
		}
	}
	if fails < 8 {
		t.Fatalf("byte-level manipulation invisible: only %d/10 failures", fails)
	}
}

func TestGroupBasedAttackLargerArray(t *testing.T) {
	// The §VI-C recovery scales beyond the illustrative 4x10 array.
	if testing.Short() {
		t.Skip("larger-array attack")
	}
	sum, err := attackGroupArray(t, 6, 12, 401)
	if err != nil {
		t.Fatal(err)
	}
	if !sum {
		t.Fatal("6x12 group-based attack failed")
	}
}

func attackGroupArray(t *testing.T, rows, cols int, seed uint64) (bool, error) {
	t.Helper()
	d, err := device.EnrollGroupBasedReuse(nil, groupParams(rows, cols), rng.New(seed), rng.New(seed+1))
	if err != nil {
		return false, err
	}
	truth := d.TrueKey()
	res, err := attack.Run(context.Background(), "groupbased", attack.NewGroupBasedTarget(d),
		attack.Options{Dist: attack.DefaultDistinguisher()})
	if err != nil {
		return false, err
	}
	t.Logf("%dx%d: %d-bit key, %d queries, exact=%v", rows, cols, truth.Len(), res.Queries, res.Key.Equal(truth))
	return res.Key.Equal(truth), nil
}

func groupParams(rows, cols int) groupbased.Params {
	return groupbased.Params{
		Rows: rows, Cols: cols,
		Degree:       2,
		ThresholdMHz: 0.5,
		MaxGroupSize: 6,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
		EnrollReps:   25,
	}
}

func TestSeqPairAttackWithGolayCode(t *testing.T) {
	// Third code family: a device deploying the perfect Golay(23,12,3)
	// code. Perfect codes never signal decode failure — the observable
	// is purely the key mismatch after miscorrection — and the attack
	// framework handles that regime unchanged.
	d, err := device.EnrollSeqPairReuse(nil, device.SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.8,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.NewGolay(),
		EnrollReps:   20,
	}, rng.New(341), rng.New(342))
	if err != nil {
		t.Fatal(err)
	}
	truth := d.TrueKey()
	res, err := attack.Run(context.Background(), "seqpair", attack.NewSeqPairTarget(d),
		attack.Options{Dist: attack.DefaultDistinguisher()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Key.Equal(truth) && !(res.Ambiguous && res.Key.Equal(truth.Not())) {
		t.Fatalf("Golay-code attack failed (ambiguous=%v)", res.Ambiguous)
	}
	t.Logf("Golay device: %d-bit key, %d queries, ambiguous=%v", truth.Len(), res.Queries, res.Ambiguous)
}
