// Package metrics computes the standard PUF quality figures the paper's
// Sections II-III discuss: reliability (intra-device distance),
// uniqueness (inter-device distance), bias, and the entropy accounting
// log2(N!) for frequency-sorting PUFs.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/perm"
)

// TotalOrderEntropyBits returns log2(N!), the total entropy of an N-RO
// array under the ideal all-orders-equally-likely assumption (paper §II).
func TotalOrderEntropyBits(n int) float64 { return perm.Log2Factorial(n) }

// Bias returns the fraction of ones across a set of responses; 0.5 is
// ideal (paper §III-B).
func Bias(responses []bitvec.Vector) float64 {
	ones, total := 0, 0
	for _, r := range responses {
		ones += r.Weight()
		total += r.Len()
	}
	if total == 0 {
		return 0
	}
	return float64(ones) / float64(total)
}

// IntraDistance returns the mean fractional Hamming distance between a
// reference response and repeated regenerations of the same device — the
// reliability figure (0 is perfectly reliable).
func IntraDistance(reference bitvec.Vector, regenerations []bitvec.Vector) (float64, error) {
	if len(regenerations) == 0 {
		return 0, fmt.Errorf("metrics: no regenerations")
	}
	var s float64
	for _, r := range regenerations {
		if r.Len() != reference.Len() {
			return 0, fmt.Errorf("metrics: regeneration length %d, reference %d", r.Len(), reference.Len())
		}
		s += float64(reference.HammingDistance(r)) / float64(reference.Len())
	}
	return s / float64(len(regenerations)), nil
}

// InterDistance returns the mean pairwise fractional Hamming distance
// across responses of DIFFERENT devices — the uniqueness figure (0.5 is
// ideal).
func InterDistance(responses []bitvec.Vector) (float64, error) {
	if len(responses) < 2 {
		return 0, fmt.Errorf("metrics: need at least two devices")
	}
	var s float64
	pairs := 0
	for i := range responses {
		for j := i + 1; j < len(responses); j++ {
			if responses[i].Len() != responses[j].Len() {
				return 0, fmt.Errorf("metrics: response lengths differ (%d vs %d)", responses[i].Len(), responses[j].Len())
			}
			s += float64(responses[i].HammingDistance(responses[j])) / float64(responses[i].Len())
			pairs++
		}
	}
	return s / float64(pairs), nil
}

// ShannonEntropyPerBit estimates the per-bit Shannon entropy from the
// observed bias: H(p) = -p log2 p - (1-p) log2 (1-p).
func ShannonEntropyPerBit(bias float64) float64 {
	if bias <= 0 || bias >= 1 {
		return 0
	}
	return -bias*math.Log2(bias) - (1-bias)*math.Log2(1-bias)
}

// MinEntropyPerBit returns -log2(max(p, 1-p)), the conservative
// key-material figure.
func MinEntropyPerBit(bias float64) float64 {
	p := bias
	if 1-p > p {
		p = 1 - p
	}
	if p >= 1 {
		return 0
	}
	return -math.Log2(p)
}
