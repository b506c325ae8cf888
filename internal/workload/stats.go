package workload

import (
	"sort"

	"repro/internal/stats"
)

// Characterization summarizes one sampled task set the way the paper's
// Figures 2–5 characterize the real traces.
type Characterization struct {
	Dataset       string
	Tasks         int
	CPUMean       float64
	CPUP50        float64
	CPUP95        float64
	MemMean       float64
	MemP50        float64
	MemP95        float64
	DurMean       float64
	DurP50        float64
	DurP95        float64
	RatePerSlot   float64 // measured mean arrival rate
	RatePeak      float64 // peak hourly-equivalent rate (per DiurnalPeriod/24 slots)
	MakespanSlots int     // last arrival slot
}

// Characterize computes summary statistics for a task set.
func Characterize(name string, tasks []Task) Characterization {
	c := Characterization{Dataset: name, Tasks: len(tasks)}
	if len(tasks) == 0 {
		return c
	}
	cpus := make([]float64, len(tasks))
	mems := make([]float64, len(tasks))
	durs := make([]float64, len(tasks))
	lastArrival := 0
	for i, t := range tasks {
		cpus[i] = float64(t.CPU)
		mems[i] = t.Mem
		durs[i] = float64(t.Duration)
		if t.Arrival > lastArrival {
			lastArrival = t.Arrival
		}
	}
	c.CPUMean, c.CPUP50, c.CPUP95 = stats.Mean(cpus), stats.Percentile(cpus, 0.50), stats.Percentile(cpus, 0.95)
	c.MemMean, c.MemP50, c.MemP95 = stats.Mean(mems), stats.Percentile(mems, 0.50), stats.Percentile(mems, 0.95)
	c.DurMean, c.DurP50, c.DurP95 = stats.Mean(durs), stats.Percentile(durs, 0.50), stats.Percentile(durs, 0.95)
	c.MakespanSlots = lastArrival
	if lastArrival > 0 {
		c.RatePerSlot = float64(len(tasks)) / float64(lastArrival+1)
	} else {
		c.RatePerSlot = float64(len(tasks))
	}
	rates := HourlyArrivalRates(tasks, 6) // 6-slot buckets ≈ "hours" at period 144
	for _, r := range rates {
		if r > c.RatePeak {
			c.RatePeak = r
		}
	}
	return c
}

// HourlyArrivalRates buckets arrivals into windows of bucketSlots and
// returns tasks-per-slot for each bucket (the series behind Figure 4).
func HourlyArrivalRates(tasks []Task, bucketSlots int) []float64 {
	if len(tasks) == 0 || bucketSlots <= 0 {
		return nil
	}
	last := 0
	for _, t := range tasks {
		if t.Arrival > last {
			last = t.Arrival
		}
	}
	nBuckets := last/bucketSlots + 1
	counts := make([]float64, nBuckets)
	for _, t := range tasks {
		counts[t.Arrival/bucketSlots]++
	}
	for i := range counts {
		counts[i] /= float64(bucketSlots)
	}
	return counts
}

// ExecTimeCDF returns (durations, cumulative fractions) — the empirical CDF
// of task execution times behind Figure 5, evaluated at each distinct
// duration in ascending order.
func ExecTimeCDF(tasks []Task) (durations []float64, cdf []float64) {
	if len(tasks) == 0 {
		return nil, nil
	}
	d := make([]float64, len(tasks))
	for i, t := range tasks {
		d[i] = float64(t.Duration)
	}
	sort.Float64s(d)
	n := float64(len(d))
	for i := 0; i < len(d); {
		j := i
		for j < len(d) && d[j] == d[i] {
			j++
		}
		durations = append(durations, d[i])
		cdf = append(cdf, float64(j)/n)
		i = j
	}
	return durations, cdf
}

// ResourceHistogram buckets a resource dimension (selected by f) into
// equal-width bins between the min and max observed values and returns bin
// upper edges with counts (the series behind Figures 2–3).
func ResourceHistogram(tasks []Task, bins int, f func(Task) float64) (edges []float64, counts []int) {
	if len(tasks) == 0 || bins <= 0 {
		return nil, nil
	}
	lo, hi := f(tasks[0]), f(tasks[0])
	for _, t := range tasks[1:] {
		v := f(t)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(bins)
	edges = make([]float64, bins)
	counts = make([]int, bins)
	for i := range edges {
		edges[i] = lo + width*float64(i+1)
	}
	for _, t := range tasks {
		b := int((f(t) - lo) / width)
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return edges, counts
}
