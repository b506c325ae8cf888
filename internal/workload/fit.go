package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// FitSpec fits a single-client declarative spec to an observed trace: CPU
// requests become empirical weighted choices, memory and duration become
// empirical quantile grids, and the arrival process becomes a burst model
// whose rate and burstiness are estimated from the arrival slots. The
// result round-trips through Compile, so a fitted spec can immediately
// drive the simulator — and Calibrate quantifies how faithfully it
// reproduces the trace.
func FitSpec(name string, tasks []Task) (*Spec, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("workload: fit spec %q: empty trace", name)
	}
	cpus := map[int]int{}
	mems := make([]float64, len(tasks))
	durs := make([]float64, len(tasks))
	slots := map[int]bool{}
	last := 0
	sloCounts := [NumSLOClasses]int{}
	for i, t := range tasks {
		cpus[t.CPU]++
		mems[i] = t.Mem
		durs[i] = float64(t.Duration)
		slots[t.Arrival] = true
		if t.Arrival > last {
			last = t.Arrival
		}
		if t.SLO >= 0 && int(t.SLO) < NumSLOClasses {
			sloCounts[t.SLO]++
		}
	}
	choices := make([]int, 0, len(cpus))
	for c := range cpus {
		choices = append(choices, c)
	}
	sort.Ints(choices)
	weights := make([]float64, len(choices))
	for i, c := range choices {
		weights[i] = float64(cpus[c]) / float64(len(tasks))
	}
	sort.Float64s(mems)
	sort.Float64s(durs)

	n := float64(len(tasks))
	rate := n / float64(last+1)
	// Burstiness estimates the clumping: with geometric batches of mean
	// 1/b, the fraction of occupied arrival slots among tasks is ~b.
	burstiness := float64(len(slots)) / n
	if burstiness > 1 {
		burstiness = 1
	}
	if burstiness <= 0 {
		burstiness = 1
	}

	majority := SLOBestEffort
	for c := SLOBestEffort; int(c) < NumSLOClasses; c++ {
		if sloCounts[c] > sloCounts[majority] {
			majority = c
		}
	}

	durMax := int(durs[len(durs)-1])
	return &Spec{
		Name: name,
		Clients: []SpecClient{{
			ID:           name,
			RateFraction: 1,
			SLOClass:     majority.String(),
			Arrival: ArrivalSpec{
				Process:     "burst",
				RatePerSlot: rate,
				Burstiness:  burstiness,
			},
			CPU: CPUSpec{Choices: choices, Weights: weights},
			Memory: MemSpec{
				Dist:      "quantile",
				Quantiles: quantileGrid(mems, 21),
				Min:       mems[0],
				Max:       mems[len(mems)-1],
			},
			Duration: DurSpec{
				Dist:      "quantile",
				Quantiles: quantileGrid(durs, 21),
				Min:       int(durs[0]),
				Max:       durMax,
			},
		}},
	}, nil
}

// quantileGrid evaluates the empirical CDF of a sorted sample at points
// evenly spaced in probability, ready for inverse-CDF sampling.
func quantileGrid(sorted []float64, points int) []float64 {
	grid := make([]float64, points)
	for i := range grid {
		grid[i] = stats.Percentile(sorted, float64(i)/float64(points-1))
	}
	return grid
}

// CalibrationDim compares one marginal of a trace against a fitted spec's
// sampled output: the two-sample Kolmogorov–Smirnov distance between the
// empirical CDFs, plus matched quantiles for eyeballing where they differ.
type CalibrationDim struct {
	Name     string
	KS       float64
	TraceQ   []float64 // p10/p25/p50/p75/p90 of the trace
	SampledQ []float64 // the same quantiles of the spec's sample
}

// CalibrationQuantiles are the probe points reported per dimension.
var CalibrationQuantiles = []float64{0.10, 0.25, 0.50, 0.75, 0.90}

// CalibrationReport compares a replayed trace against a spec's sampled
// tasks, one dimension at a time (cpu, mem_gib, duration, interarrival).
type CalibrationReport struct {
	TraceTasks   int
	SampledTasks int
	Dims         []CalibrationDim
}

// Calibrate builds the calibration report for a trace and a spec-sampled
// task set of comparable size.
func Calibrate(trace, sampled []Task) CalibrationReport {
	rep := CalibrationReport{TraceTasks: len(trace), SampledTasks: len(sampled)}
	dims := []struct {
		name    string
		extract func([]Task) []float64
	}{
		{"cpu", func(ts []Task) []float64 { return extractDim(ts, func(t Task) float64 { return float64(t.CPU) }) }},
		{"mem_gib", func(ts []Task) []float64 { return extractDim(ts, func(t Task) float64 { return t.Mem }) }},
		{"duration", func(ts []Task) []float64 { return extractDim(ts, func(t Task) float64 { return float64(t.Duration) }) }},
		{"interarrival", interarrivals},
	}
	for _, d := range dims {
		a, b := d.extract(trace), d.extract(sampled)
		sort.Float64s(a)
		sort.Float64s(b)
		dim := CalibrationDim{Name: d.name, KS: ksDistance(a, b)}
		for _, q := range CalibrationQuantiles {
			dim.TraceQ = append(dim.TraceQ, stats.Percentile(a, q))
			dim.SampledQ = append(dim.SampledQ, stats.Percentile(b, q))
		}
		rep.Dims = append(rep.Dims, dim)
	}
	return rep
}

func extractDim(ts []Task, f func(Task) float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t)
	}
	return out
}

func interarrivals(ts []Task) []float64 {
	if len(ts) < 2 {
		return nil
	}
	out := make([]float64, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out[i-1] = float64(ts[i].Arrival - ts[i-1].Arrival)
	}
	return out
}

// ksDistance is the two-sample Kolmogorov–Smirnov statistic: the largest
// gap between the two empirical CDFs, computed with one merge sweep over
// the sorted samples.
func ksDistance(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN()
	}
	i, j, d := 0, 0, 0.0
	for i < len(a) && j < len(b) {
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] <= x {
			i++
		}
		for j < len(b) && b[j] <= x {
			j++
		}
		if gap := math.Abs(float64(i)/float64(len(a)) - float64(j)/float64(len(b))); gap > d {
			d = gap
		}
	}
	return d
}
