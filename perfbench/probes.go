package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitvec"
	"repro/internal/campaign"
	"repro/internal/ecc"
	"repro/internal/rng"
	"repro/internal/silicon"
)

const (
	probeTarget = 20 * time.Millisecond // work per probe repetition
	probeReps   = 5                     // repetitions; the median is reported
	noopTask    = "perfbench-noop"
)

func init() {
	campaign.Register(campaign.Task{
		Name: noopTask, Desc: "does nothing; measures the campaign engine's per-task overhead",
		Run: func(context.Context, uint64, campaign.Options) (campaign.Metrics, error) {
			return campaign.Metrics{"one": 1}, nil
		},
	})
}

// probeNS times fn (which performs `per` units of work) and returns the
// median over probeReps of nanoseconds per unit, after sizing the
// iteration count so one repetition takes about probeTarget.
func probeNS(per int, fn func()) float64 {
	iters := 1
	for {
		t0 := time.Now()
		for range iters {
			fn()
		}
		if d := time.Since(t0); d >= probeTarget/4 {
			iters = max(1, int(float64(iters)*float64(probeTarget)/float64(d)))
			break
		}
		iters *= 4
	}
	reps := make([]float64, probeReps)
	for r := range reps {
		t0 := time.Now()
		for range iters {
			fn()
		}
		reps[r] = float64(time.Since(t0).Nanoseconds()) / float64(iters*per)
	}
	return median(reps)
}

// probeKernels measures the bottom layers in isolation at the sizes the
// workloads use: counter-mode noise fill over a canonical 8x16 array,
// dense and sparse silicon measurement of that array, BCH decoding of
// the two canonical codes at 0 and t errors, and the campaign engine's
// per-task overhead on a no-op task.
func probeKernels(m metrics) error {
	const rows, cols = 8, 16
	n := rows * cols
	buf := make([]float64, n)
	sweep := uint64(0)
	m.set("rng.fill_ns_per_draw", "ns", probeNS(n, func() {
		sweep++
		rng.NewBlockSweep(0x5eed, sweep).FillNorm(buf)
	}))

	cfg := silicon.DefaultConfig(rows, cols)
	cfg.Noise = silicon.NoiseCounter
	arr := silicon.NewArray(cfg, rng.New(1))
	env := cfg.NominalEnv()
	nm := arr.NewNoise(rng.New(2))
	m.set("silicon.measure_dense_us", "us", probeNS(1, func() { arr.MeasureIntoWith(buf, env, nm) })/1e3)
	for _, every := range []int{8, 32} {
		var idxs []int
		for i := 0; i < n; i += every {
			idxs = append(idxs, i)
		}
		m.set(fmt.Sprintf("silicon.measure_sparse_us.1of%d", every), "us",
			probeNS(1, func() { arr.MeasureSparse(buf, idxs, env, nm) })/1e3)
	}

	for _, c := range []struct {
		name string
		m    int
	}{{"bch31", 5}, {"bch63", 6}} {
		code, err := ecc.NewBCH(ecc.BCHConfig{M: c.m, T: 3})
		if err != nil {
			return err
		}
		src := rng.New(3)
		msg := bitvec.New(code.K())
		for i := 0; i < code.K(); i++ {
			msg.Set(i, src.Bool())
		}
		word := code.Encode(msg)
		for _, errs := range []int{0, code.T()} {
			recv := word.Clone()
			for e := 0; e < errs; e++ {
				recv.Flip(e * (code.N() / code.T()))
			}
			var ws ecc.Workspace
			dst := bitvec.New(code.N())
			if _, ok := code.DecodeInto(&ws, recv, dst); !ok || !dst.Equal(word) {
				return fmt.Errorf("%s decode with %d errors failed", c.name, errs)
			}
			m.set(fmt.Sprintf("ecc.decode_ns.%s_t%d", c.name, errs), "ns",
				probeNS(1, func() { code.DecodeInto(&ws, recv, dst) }))
		}
	}

	const tasks = 2000
	var runErr error
	spec := campaign.Spec{Task: noopTask, Seeds: tasks, Workers: 1}
	perTask := probeNS(tasks, func() {
		if _, err := campaign.Run(context.Background(), spec); err != nil {
			runErr = err
		}
	})
	m.set("campaign.engine_overhead_us_per_task", "us", perTask/1e3)
	return runErr
}
