// Package silicon simulates a ring-oscillator array with manufacturing
// variability, the hardware substrate every construction in this
// repository runs on. It substitutes the FPGA prototypes of the attacked
// proposals (Xilinx Spartan-3 / XC4010XL) with a Monte-Carlo model that
// captures exactly the properties the paper's analysis depends on:
//
//   - random (desired) per-RO process variation,
//   - systematic, spatially correlated variation modeled as a smooth
//     polynomial surface over the die (Fig. 2 of the paper, after
//     Sedcole & Cheung's FPGA measurements),
//   - measurement noise for every frequency read-out,
//   - a linear temperature dependence with a per-RO slope spread, so
//     that pairwise frequency curves cross over temperature exactly as in
//     Fig. 3 of the paper (good / bad / cooperating pairs), and
//   - a common supply-voltage dependence.
//
// Frequencies are in MHz, temperatures in degrees Celsius, voltages in
// volts. All randomness flows through explicit rng.Source values so
// whole experiments replay from one seed.
package silicon

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Environment is the operating condition of one key reconstruction.
type Environment struct {
	TempC    float64
	VoltageV float64
}

// Config describes the statistical model of one manufactured RO array.
type Config struct {
	// Rows and Cols give the physical layout; N = Rows*Cols oscillators.
	Rows, Cols int

	// NominalMHz is the design frequency of every oscillator.
	NominalMHz float64

	// ProcessSigmaMHz is the standard deviation of the random (desired)
	// per-RO manufacturing variation.
	ProcessSigmaMHz float64

	// GradientXMHz and GradientYMHz describe the systematic linear trend
	// across the die: the frequency added at the far edge relative to
	// the origin, in each direction (the linear trend of Fig. 2).
	GradientXMHz, GradientYMHz float64

	// BowlMHz adds a quadratic systematic component: a paraboloid that
	// is zero at the die center and reaches BowlMHz at the corners,
	// modeling radial process gradients.
	BowlMHz float64

	// NoiseSigmaMHz is the standard deviation of the additive noise of a
	// single frequency measurement.
	NoiseSigmaMHz float64

	// TempCoefMeanMHzPerC is the mean frequency slope versus
	// temperature; physically negative (frequency drops when the die
	// heats up).
	TempCoefMeanMHzPerC float64

	// TempCoefSigmaMHzPerC is the per-RO spread of that slope. A nonzero
	// spread makes pairwise frequency differences temperature dependent
	// and produces the crossovers of Fig. 3.
	TempCoefSigmaMHzPerC float64

	// VoltCoefMHzPerV is the common frequency slope versus supply
	// voltage (positive: frequency rises with voltage).
	VoltCoefMHzPerV float64

	// ReferenceTempC and NominalVoltageV define the enrollment
	// environment in which base frequencies are stated.
	ReferenceTempC  float64
	NominalVoltageV float64

	// Noise names the measurement-noise contract (see noise.go). It is
	// single-valued: the zero value NoiseCounter is the only accepted
	// model.
	Noise NoiseKind
}

// DefaultConfig returns a parameterization representative of the FPGA RO
// measurements in the cited literature: ~1% process sigma, a systematic
// trend of the same order as the random spread, and a temperature slope
// spread that yields a healthy population of cooperating pairs over the
// industrial range.
func DefaultConfig(rows, cols int) Config {
	return Config{
		Rows:                 rows,
		Cols:                 cols,
		NominalMHz:           200,
		ProcessSigmaMHz:      2.0,
		GradientXMHz:         3.0,
		GradientYMHz:         1.5,
		BowlMHz:              1.0,
		NoiseSigmaMHz:        0.05,
		TempCoefMeanMHzPerC:  -0.20,
		TempCoefSigmaMHzPerC: 0.02,
		VoltCoefMHzPerV:      40,
		ReferenceTempC:       25,
		NominalVoltageV:      1.2,
	}
}

// Validate reports configuration errors. Every float field must be
// finite: the comparisons below pass NaN silently, and a Readout's
// noise bound needs a finite sigma.
func (c Config) Validate() error {
	if c.Rows < 1 || c.Cols < 1 {
		return fmt.Errorf("silicon: array %dx%d has no oscillators", c.Rows, c.Cols)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"NominalMHz", c.NominalMHz},
		{"ProcessSigmaMHz", c.ProcessSigmaMHz},
		{"GradientXMHz", c.GradientXMHz},
		{"GradientYMHz", c.GradientYMHz},
		{"BowlMHz", c.BowlMHz},
		{"NoiseSigmaMHz", c.NoiseSigmaMHz},
		{"TempCoefMeanMHzPerC", c.TempCoefMeanMHzPerC},
		{"TempCoefSigmaMHzPerC", c.TempCoefSigmaMHzPerC},
		{"VoltCoefMHzPerV", c.VoltCoefMHzPerV},
		{"ReferenceTempC", c.ReferenceTempC},
		{"NominalVoltageV", c.NominalVoltageV},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("silicon: %s = %v is not finite", f.name, f.v)
		}
	}
	if c.NominalMHz <= 0 {
		return fmt.Errorf("silicon: nominal frequency %v <= 0", c.NominalMHz)
	}
	if c.ProcessSigmaMHz < 0 || c.NoiseSigmaMHz < 0 || c.TempCoefSigmaMHzPerC < 0 {
		return fmt.Errorf("silicon: negative sigma in config")
	}
	if c.Noise != NoiseCounter {
		return fmt.Errorf("silicon: unknown noise model %d", int(c.Noise))
	}
	return nil
}

// NominalEnv returns the enrollment environment of the config.
func (c Config) NominalEnv() Environment {
	return Environment{TempC: c.ReferenceTempC, VoltageV: c.NominalVoltageV}
}

// Array is one manufactured instance of the configured RO array.
type Array struct {
	cfg        Config
	base       []float64 // per-RO frequency at reference environment
	systematic []float64 // systematic component of base (for analysis)
	random     []float64 // random component of base (for analysis)
	tempCoef   []float64 // per-RO dF/dT
}

// NewArray manufactures one array instance, drawing its variability from
// src. It panics on an invalid config (construction parameters are
// programmer-chosen, not runtime data).
func NewArray(cfg Config, src *rng.Source) *Array {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Rows * cfg.Cols
	a := &Array{
		cfg:        cfg,
		base:       make([]float64, n),
		systematic: make([]float64, n),
		random:     make([]float64, n),
		tempCoef:   make([]float64, n),
	}
	cfg.manufactureInto(src, a.base, a.systematic, a.random, a.tempCoef)
	return a
}

// manufactureInto draws one array instance's variability into
// caller-owned component vectors (all of length Rows*Cols) — the single
// manufacture loop shared by NewArray and Array.Remanufactured, so
// both construction paths consume src identically:
// per oscillator, the random process component then the temperature
// slope.
func (c Config) manufactureInto(src *rng.Source, base, systematic, random, tempCoef []float64) {
	for i := range base {
		x, y := i%c.Cols, i/c.Cols
		systematic[i] = c.systematicAt(x, y)
		random[i] = src.NormScaled(0, c.ProcessSigmaMHz)
		base[i] = c.NominalMHz + systematic[i] + random[i]
		tempCoef[i] = src.NormScaled(c.TempCoefMeanMHzPerC, c.TempCoefSigmaMHzPerC)
	}
}

// Remanufactured re-draws array a as a fresh instance of cfg from src,
// reusing a's component buffers when the oscillator count is unchanged:
// the device-pool path that turns per-seed manufacture from four slice
// allocations into zero. The result is bit-identical to NewArray(cfg,
// src) — same draw order, same arithmetic — and when the geometry
// matches, the returned array IS a (pointer identity preserved for
// scratch invalidation checks). A nil receiver or a size change falls
// back to NewArray.
func (a *Array) Remanufactured(cfg Config, src *rng.Source) *Array {
	if a == nil || len(a.base) != cfg.Rows*cfg.Cols {
		return NewArray(cfg, src)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a.cfg = cfg
	cfg.manufactureInto(src, a.base, a.systematic, a.random, a.tempCoef)
	return a
}

// systematicAt evaluates the configured systematic surface at grid
// coordinates (x, y). Coordinates are normalized to [0, 1] across the die
// so that gradient magnitudes are layout-size independent.
func (c Config) systematicAt(x, y int) float64 {
	nx, ny := 0.0, 0.0
	if c.Cols > 1 {
		nx = float64(x) / float64(c.Cols-1)
	}
	if c.Rows > 1 {
		ny = float64(y) / float64(c.Rows-1)
	}
	lin := c.GradientXMHz*nx + c.GradientYMHz*ny
	dx, dy := nx-0.5, ny-0.5
	bowl := c.BowlMHz * (dx*dx + dy*dy) / 0.5
	return lin + bowl
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// N returns the oscillator count.
func (a *Array) N() int { return len(a.base) }

// Rows returns the layout row count.
func (a *Array) Rows() int { return a.cfg.Rows }

// Cols returns the layout column count.
func (a *Array) Cols() int { return a.cfg.Cols }

// Index maps a grid position (x, y) = (column, row) to the oscillator
// index; indices scan row-major, matching the univariate labeling of the
// paper's Section II.
func (a *Array) Index(x, y int) int {
	if x < 0 || x >= a.cfg.Cols || y < 0 || y >= a.cfg.Rows {
		panic(fmt.Sprintf("silicon: position (%d,%d) outside %dx%d", x, y, a.cfg.Cols, a.cfg.Rows))
	}
	return y*a.cfg.Cols + x
}

// TrueFreq returns the noise-free frequency of oscillator i in the given
// environment: base + tempCoef*(T - Tref) + voltCoef*(V - Vnom).
func (a *Array) TrueFreq(i int, env Environment) float64 {
	return a.base[i] +
		a.tempCoef[i]*(env.TempC-a.cfg.ReferenceTempC) +
		a.cfg.VoltCoefMHzPerV*(env.VoltageV-a.cfg.NominalVoltageV)
}

// MeasureIntoWith measures every oscillator once into a caller-owned
// buffer of length N: one sweep of variates (nm.FillAll), then the
// per-oscillator frequency model. It returns dst.
func (a *Array) MeasureIntoWith(dst []float64, env Environment, nm *Noise) []float64 {
	if len(dst) != a.N() {
		panic(fmt.Sprintf("silicon: MeasureIntoWith buffer length %d, want %d", len(dst), a.N()))
	}
	return a.measureScaled(dst, env, nm, a.cfg.NoiseSigmaMHz)
}

// measureScaled draws nm's next sweep z into dst and turns it into
// TrueFreq(i, env) + scale·z[i] in place.
func (a *Array) measureScaled(dst []float64, env Environment, nm *Noise, scale float64) []float64 {
	nm.FillAll(dst)
	for i := range dst {
		dst[i] = a.TrueFreq(i, env) + scale*dst[i]
	}
	return dst
}

// MeasureSparse measures only the oscillators listed in idxs (ascending,
// no duplicates), writing their frequencies into dst (length N); entries
// outside the subset are scratch garbage the caller must not read. It
// draws exactly len(idxs) variates, and each wanted entry is
// bit-identical to what MeasureIntoWith would produce for the same
// sweep. Devices measure through a Readout instead, which draws only
// the variates that can change a comparison; MeasureSparse is its
// reference.
func (a *Array) MeasureSparse(dst []float64, idxs []int, env Environment, nm *Noise) []float64 {
	if len(dst) != a.N() {
		panic(fmt.Sprintf("silicon: MeasureSparse buffer length %d, want %d", len(dst), a.N()))
	}
	nm.FillIndices(dst, idxs)
	sigma := a.cfg.NoiseSigmaMHz
	for _, i := range idxs {
		dst[i] = a.TrueFreq(i, env) + sigma*dst[i]
	}
	return dst
}

// TrueFreqInto fills dst (length N) with the noise-free frequency of
// every oscillator in env.
func (a *Array) TrueFreqInto(dst []float64, env Environment) []float64 {
	if len(dst) != a.N() {
		panic(fmt.Sprintf("silicon: TrueFreqInto buffer length %d, want %d", len(dst), a.N()))
	}
	for i := range dst {
		dst[i] = a.TrueFreq(i, env)
	}
	return dst
}

// MeasureAveraged returns the per-oscillator mean of `reps` noisy
// measurements in env, the standard enrollment-time noise reduction.
//
// It draws the mean from its exact distribution instead of averaging
// reps sweeps. A measurement adds unquantized N(0, σ²) noise, and the
// sweeps are keyed independently, so the mean of reps sweeps is
// N(TrueFreq, σ²/reps) per oscillator, independently across
// oscillators: one sweep z scaled by σ/√reps has that distribution at
// 1/reps of the variates. The result is TrueFreq(i, env) + (σ/√reps)·z[i],
// where z is the FillAll of the first of reps reserved sweeps.
//
// Sweep accounting: the call reserves reps sweep indices, as the
// per-sweep average did, and draws only the first. nm therefore ends
// reps sweeps further on, and every later measurement draws the same
// noise it would have drawn after a reps-sweep average. At reps = 1
// the result is bit-identical to one MeasureIntoWith sweep, since
// σ/√1 = σ exactly. The result, which holds the sweep's variates until
// they are scaled in place, is its only allocation.
func (a *Array) MeasureAveraged(env Environment, nm *Noise, reps int) []float64 {
	if reps < 1 {
		panic("silicon: MeasureAveraged needs reps >= 1")
	}
	dst := a.measureScaled(make([]float64, a.N()), env, nm, a.cfg.NoiseSigmaMHz/math.Sqrt(float64(reps)))
	nm.sweep += uint64(reps - 1)
	return dst
}

// SystematicComponent returns the systematic part of oscillator i's base
// frequency; analysis-only (a real attacker cannot read this directly,
// but the entropy distiller estimates it).
func (a *Array) SystematicComponent(i int) float64 { return a.systematic[i] }

// RandomComponent returns the random part of oscillator i's base
// frequency; analysis-only.
func (a *Array) RandomComponent(i int) float64 { return a.random[i] }

// PairDeltaF returns the noise-free frequency difference f_i - f_j in the
// given environment.
func (a *Array) PairDeltaF(i, j int, env Environment) float64 {
	return a.TrueFreq(i, env) - a.TrueFreq(j, env)
}
