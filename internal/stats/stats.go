// Package stats provides the statistical utilities used by the evaluation
// harness: descriptive statistics, empirical CDFs, and the pair-wise
// Wilcoxon signed-rank test the paper uses for Table 4.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Percentile returns the q-th percentile (q in [0,1]) with linear
// interpolation. It returns NaN for empty input.
func Percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// MovingAverage smooths v with a trailing window of the given size (the
// convergence plots use this). Window sizes < 2 return a copy.
func MovingAverage(v []float64, window int) []float64 {
	out := make([]float64, len(v))
	if window < 2 {
		copy(out, v)
		return out
	}
	sum := 0.0
	for i, x := range v {
		sum += x
		if i >= window {
			sum -= v[i-window]
		}
		n := i + 1
		if n > window {
			n = window
		}
		out[i] = sum / float64(n)
	}
	return out
}

// WilcoxonResult reports a pair-wise Wilcoxon signed-rank test.
type WilcoxonResult struct {
	// WPlus and WMinus are the rank sums of positive and negative
	// differences.
	WPlus, WMinus float64
	// N is the number of non-zero differences actually tested.
	N int
	// P is the two-sided p-value.
	P float64
	// Exact reports whether the exact permutation distribution was used
	// (true for N <= ExactLimit) rather than the normal approximation.
	Exact bool
}

// ExactLimit is the largest N for which Wilcoxon computes the exact
// permutation distribution; beyond it the normal approximation with tie and
// continuity corrections is used.
const ExactLimit = 25

// Wilcoxon runs the two-sided Wilcoxon signed-rank test on paired samples
// x and y (testing H0: median difference is zero). Zero differences are
// dropped, tied absolute differences get average ranks. It returns an error
// for mismatched lengths or when no non-zero differences remain.
func Wilcoxon(x, y []float64) (WilcoxonResult, error) {
	if len(x) != len(y) {
		return WilcoxonResult{}, fmt.Errorf("stats: Wilcoxon needs paired samples, got %d vs %d", len(x), len(y))
	}
	type diff struct {
		abs float64
		pos bool
	}
	var diffs []diff
	for i := range x {
		d := x[i] - y[i]
		if d != 0 {
			diffs = append(diffs, diff{abs: math.Abs(d), pos: d > 0})
		}
	}
	n := len(diffs)
	if n == 0 {
		return WilcoxonResult{}, fmt.Errorf("stats: Wilcoxon has no non-zero differences")
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].abs < diffs[j].abs })

	// Average ranks for ties. Ranks are half-integers, so store 2×rank as
	// integers for the exact DP.
	ranks2 := make([]int, n) // 2 × rank
	tieCorrection := 0.0
	for i := 0; i < n; {
		j := i
		for j < n && diffs[j].abs == diffs[i].abs {
			j++
		}
		// average rank of positions i..j-1 (1-based): (i+1 + j) / 2
		avg2 := (i + 1) + j // 2 × average rank
		for k := i; k < j; k++ {
			ranks2[k] = avg2
		}
		t := float64(j - i)
		tieCorrection += t*t*t - t
		i = j
	}

	wPlus2 := 0
	for i, d := range diffs {
		if d.pos {
			wPlus2 += ranks2[i]
		}
	}
	total2 := n * (n + 1) // 2 × n(n+1)/2
	res := WilcoxonResult{
		WPlus:  float64(wPlus2) / 2,
		WMinus: float64(total2-wPlus2) / 2,
		N:      n,
	}

	if n <= ExactLimit {
		res.Exact = true
		res.P = exactP(ranks2, wPlus2, total2)
	} else {
		mean := float64(n*(n+1)) / 4
		variance := float64(n*(n+1)*(2*n+1))/24 - tieCorrection/48
		w := math.Min(res.WPlus, res.WMinus)
		// Continuity correction toward the mean.
		z := (w - mean + 0.5) / math.Sqrt(variance)
		res.P = 2 * normalCDF(z)
	}
	if res.P > 1 {
		res.P = 1
	}
	return res, nil
}

// exactP computes the exact two-sided p-value by dynamic programming over
// the 2^n sign assignments: counts[s] = number of assignments with
// (2×W+) == s.
func exactP(ranks2 []int, wPlus2, total2 int) float64 {
	counts := make([]float64, total2+1)
	counts[0] = 1
	for _, r := range ranks2 {
		for s := total2; s >= r; s-- {
			counts[s] += counts[s-r]
		}
	}
	totalAssignments := math.Pow(2, float64(len(ranks2)))
	// Two-sided: P(W+ <= w) + P(W+ >= total - w) with w the observed W+.
	// By symmetry of the null distribution this equals
	// 2·P(W+ <= min(w, total-w)).
	w := wPlus2
	if total2-wPlus2 < w {
		w = total2 - wPlus2
	}
	cum := 0.0
	for s := 0; s <= w; s++ {
		cum += counts[s]
	}
	p := 2 * cum / totalAssignments
	// Guard against double-counting the exact center.
	if p > 1 {
		p = 1
	}
	return p
}

// normalCDF returns P(Z <= z) for a standard normal variable.
func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// ECDF returns the empirical CDF of v evaluated at each distinct value:
// (sorted distinct values, cumulative fractions).
func ECDF(v []float64) (xs, fs []float64) {
	if len(v) == 0 {
		return nil, nil
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := float64(len(s))
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		xs = append(xs, s[i])
		fs = append(fs, float64(j)/n)
		i = j
	}
	return xs, fs
}
