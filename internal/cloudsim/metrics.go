package cloudsim

import (
	"cmp"
	"slices"

	"repro/internal/workload"
)

// SLOMetrics summarizes queueing behavior for one service class.
type SLOMetrics struct {
	Class     workload.SLOClass
	Completed int
	// AvgWait / WaitP50 / WaitP95 summarize the class's queueing delays
	// j^wait in slots.
	AvgWait float64
	WaitP50 float64
	WaitP95 float64
	// Violations counts completed tasks whose wait exceeded the class's
	// Config.Objectives.SLOWaitTarget (a zero target tracks nothing).
	Violations int
}

// Metrics are the four evaluation measures of §5.1.
type Metrics struct {
	// AvgResponse is Eq. (23): mean of j^res over completed tasks, in slots.
	AvgResponse float64
	// Makespan is the completion slot of the last task.
	Makespan int
	// AvgUtil is Eq. (24): the time-averaged, resource-weighted mean VM
	// utilization, in [0,1].
	AvgUtil float64
	// AvgLoadBal is Eq. (25): the time-averaged Eq. (4) imbalance
	// (lower is better).
	AvgLoadBal float64
	// Completed and Total report scheduling coverage: Total is the offered
	// task count, and Completed < Total means the episode hit its step cap
	// with tasks outstanding, or its source failed (Env.SourceErr).
	Completed int
	Total     int
	// Steps is the number of agent decisions taken.
	Steps int
	// EnergyWattSlots is the time-integrated power draw across VMs under
	// the linear power model (energy.go; watt·slots).
	EnergyWattSlots float64
	// Cost is the accumulated per-slot billing of busy VMs at
	// capacity-derived prices (price·slots).
	Cost float64
	// PerSLO breaks queueing delay down by service class, indexed by
	// workload.SLOClass.
	PerSLO [workload.NumSLOClasses]SLOMetrics
}

// Drain advances time until every placed task has finished executing, so
// the time-integrated metrics cover the full schedule. It does not place
// any queued tasks. Call after the decision loop ends.
func (e *Env) Drain() {
	for len(e.heap) > 0 {
		e.advanceTime()
	}
}

// Metrics summarizes the episode so far from the placement fold Step keeps,
// allocating nothing. Responses and waits are whole slots, so float64 of an
// int64 sum is the exact float64 sum a record per task gave (below 2^53),
// and the percentiles interpolate between the sorted sample's waits.
func (e *Env) Metrics() Metrics {
	m := Metrics{Makespan: e.makespan, Completed: e.placed, Total: e.totalTasks, Steps: e.step}
	if e.placed > 0 {
		m.AvgResponse = float64(e.responseSum) / float64(e.placed)
	}
	if e.slots > 0 {
		util := 0.0
		for i := 0; i < NumResources; i++ {
			util += resourceWeights[i] * e.utilSum[i]
		}
		m.AvgUtil = util / float64(e.slots)
		m.AvgLoadBal = e.loadBalSum / float64(e.slots)
	}
	m.EnergyWattSlots = e.energySum
	m.Cost = e.costSum
	for c := range m.PerSLO {
		m.PerSLO[c] = e.waits[c].metrics(workload.SLOClass(c), e.cfg.Objectives.SLOWaitTarget[c])
	}
	return m
}

// waitHist is one SLO class's waits as a run-length histogram — the distinct
// waits ascending, each with its count — in O(distinct waits) memory.
type waitHist struct {
	n    int
	sum  int64
	runs []waitRun
}

type waitRun struct{ wait, count int }

func (h *waitHist) add(w int) {
	h.n++
	h.sum += int64(w)
	i, found := slices.BinarySearchFunc(h.runs, w, func(r waitRun, w int) int { return cmp.Compare(r.wait, w) })
	if !found {
		h.runs = slices.Insert(h.runs, i, waitRun{wait: w})
	}
	h.runs[i].count++
}

// metrics summarizes the class; a wait above a positive target is a
// violation.
func (h *waitHist) metrics(c workload.SLOClass, target int) SLOMetrics {
	s := SLOMetrics{Class: c, Completed: h.n}
	if h.n == 0 {
		return s
	}
	s.AvgWait = float64(h.sum) / float64(h.n)
	s.WaitP50 = h.percentile(0.50)
	s.WaitP95 = h.percentile(0.95)
	for _, r := range h.runs {
		if target > 0 && r.wait > target {
			s.Violations += r.count
		}
	}
	return s
}

// percentile linearly interpolates between the waits around q·(n−1).
func (h *waitHist) percentile(q float64) float64 {
	pos := q * float64(h.n-1)
	lo := int(pos)
	if lo >= h.n-1 {
		return h.kth(h.n - 1)
	}
	return h.kth(lo) + (pos-float64(lo))*(h.kth(lo+1)-h.kth(lo))
}

// kth returns the k-th smallest wait, 0-based.
func (h *waitHist) kth(k int) float64 {
	i := 0
	for ; k >= h.runs[i].count; i++ {
		k -= h.runs[i].count
	}
	return float64(h.runs[i].wait)
}
