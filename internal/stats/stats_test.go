package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDescriptiveBasics(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(v) != 5 {
		t.Fatalf("mean %v", Mean(v))
	}
	if Percentile(v, 0.5) != 4.5 {
		t.Fatalf("median %v", Percentile(v, 0.5))
	}
	if Mean(nil) != 0 {
		t.Fatal("degenerate inputs")
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("median of empty should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	if Percentile(v, 0) != 1 || Percentile(v, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if Percentile(v, 0.5) != 3 {
		t.Fatal("median wrong")
	}
	if got := Percentile(v, 0.25); got != 2 {
		t.Fatalf("P25 = %v", got)
	}
	if got := Percentile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Fatalf("interpolation %v", got)
	}
}

func TestMovingAverage(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	ma := MovingAverage(v, 2)
	want := []float64{1, 1.5, 2.5, 3.5}
	for i := range want {
		if math.Abs(ma[i]-want[i]) > 1e-12 {
			t.Fatalf("ma %v, want %v", ma, want)
		}
	}
	same := MovingAverage(v, 1)
	for i := range v {
		if same[i] != v[i] {
			t.Fatal("window 1 should copy")
		}
	}
}

func TestWilcoxonAllSameSign(t *testing.T) {
	// 10 pairs, x uniformly better (all differences negative): the exact
	// two-sided p is 2/2^10 ≈ 1.95e-3 — the value the paper's Table 4
	// reports (1.93e-3 up to rounding/implementation detail).
	x := make([]float64, 10)
	y := make([]float64, 10)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) + 1 + float64(i)*0.1
	}
	res, err := Wilcoxon(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("n=10 should use the exact distribution")
	}
	if res.WPlus != 0 || res.WMinus != 55 {
		t.Fatalf("rank sums %v/%v", res.WPlus, res.WMinus)
	}
	want := 2.0 / 1024.0
	if math.Abs(res.P-want) > 1e-12 {
		t.Fatalf("p=%v, want %v", res.P, want)
	}
}

func TestWilcoxonSymmetric(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{2, 1, 4, 3, 6, 5, 8, 7}
	res, err := Wilcoxon(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.5 {
		t.Fatalf("balanced differences should not be significant: p=%v", res.P)
	}
}

func TestWilcoxonKnownValue(t *testing.T) {
	// Classic textbook example (Wilcoxon 1945-style): n=9 non-zero diffs.
	x := []float64{125, 115, 130, 140, 140, 115, 140, 125, 140, 135}
	y := []float64{110, 122, 125, 120, 140, 124, 123, 137, 135, 145}
	res, err := Wilcoxon(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 9 {
		t.Fatalf("N=%d, want 9 (one zero difference dropped)", res.N)
	}
	// Hand computation: |diffs| = {15,7,5,20,9,17,12,5,10}, average ranks
	// for the tied 5s are 1.5; W+ = 7+1.5+9+8+1.5 = 27, W- = 18.
	if res.WPlus != 27 || res.WMinus != 18 {
		t.Fatalf("W+=%v W-=%v, want 27/18", res.WPlus, res.WMinus)
	}
	// Not significant: exact two-sided p is ≈0.59–0.65 for W=18, n=9.
	if res.P < 0.5 || res.P > 0.75 {
		t.Fatalf("p=%v, want ≈0.6", res.P)
	}
}

func TestWilcoxonTiesGetAverageRanks(t *testing.T) {
	x := []float64{1, 1, 1, 10}
	y := []float64{0, 0, 0, 0}
	res, err := Wilcoxon(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// |diffs| = 1,1,1,10 → ranks 2,2,2,4; all positive → W+ = 10.
	if res.WPlus != 10 || res.WMinus != 0 {
		t.Fatalf("W+=%v W-=%v", res.WPlus, res.WMinus)
	}
}

func TestWilcoxonErrors(t *testing.T) {
	if _, err := Wilcoxon([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Wilcoxon([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("all-zero differences should error")
	}
}

func TestWilcoxonNormalApproxLargeN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 60
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i] + 0.8 + 0.3*rng.NormFloat64() // strong consistent shift
	}
	res, err := Wilcoxon(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("n=60 should use the normal approximation")
	}
	if res.P > 1e-4 {
		t.Fatalf("strong shift should be highly significant, p=%v", res.P)
	}
}

func TestWilcoxonExactMatchesApproxInOverlap(t *testing.T) {
	// For moderate n without ties the exact and approximate p-values
	// should be close.
	rng := rand.New(rand.NewSource(2))
	n := 20
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i] + 0.4*rng.NormFloat64() + 0.1
	}
	exact, err := Wilcoxon(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exact {
		t.Fatal("expected exact path")
	}
	// Recompute the approximate p-value from the same rank sums.
	mean := float64(n*(n+1)) / 4
	variance := float64(n*(n+1)*(2*n+1)) / 24
	w := math.Min(exact.WPlus, exact.WMinus)
	z := (w - mean + 0.5) / math.Sqrt(variance)
	approx := 2 * 0.5 * math.Erfc(-z/math.Sqrt2)
	// The normal approximation is only trustworthy outside the far tail.
	if exact.P > 1e-2 && math.Abs(math.Log(exact.P)-math.Log(approx)) > 0.5 {
		t.Fatalf("exact %v and approx %v diverge", exact.P, approx)
	}
}

func TestECDF(t *testing.T) {
	xs, fs := ECDF([]float64{3, 1, 3, 2})
	wantX := []float64{1, 2, 3}
	wantF := []float64{0.25, 0.5, 1.0}
	for i := range wantX {
		if xs[i] != wantX[i] || math.Abs(fs[i]-wantF[i]) > 1e-12 {
			t.Fatalf("ECDF (%v,%v)", xs, fs)
		}
	}
	if x, f := ECDF(nil); x != nil || f != nil {
		t.Fatal("empty ECDF should be nil")
	}
}

func TestPropWilcoxonPValueValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		res, err := Wilcoxon(x, y)
		if err != nil {
			return true // all-zero diffs is valid rejection
		}
		if res.P < 0 || res.P > 1 || math.IsNaN(res.P) {
			return false
		}
		// Rank sums partition n(n+1)/2.
		return math.Abs(res.WPlus+res.WMinus-float64(res.N*(res.N+1))/2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropNullUniformityRough(t *testing.T) {
	// Under H0 the test should reject at ~5% for alpha=0.05; allow a loose
	// band since we only run 200 trials.
	rng := rand.New(rand.NewSource(99))
	rejections := 0
	trials := 200
	for tr := 0; tr < trials; tr++ {
		n := 15
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		res, err := Wilcoxon(x, y)
		if err != nil {
			continue
		}
		if res.P < 0.05 {
			rejections++
		}
	}
	rate := float64(rejections) / float64(trials)
	if rate > 0.12 {
		t.Fatalf("null rejection rate %v too high", rate)
	}
}
