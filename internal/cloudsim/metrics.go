package cloudsim

import (
	"sort"

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

// Metrics summarizes the episode so far.
func (e *Env) Metrics() Metrics {
	m := Metrics{Completed: len(e.completed), Total: e.totalTasks, Steps: e.step}
	if len(e.completed) > 0 {
		sum := 0.0
		for _, r := range e.completed {
			sum += float64(r.Response())
			if r.Finish > m.Makespan {
				m.Makespan = r.Finish
			}
		}
		m.AvgResponse = sum / float64(len(e.completed))
	}
	if e.slots > 0 {
		util := 0.0
		for i := 0; i < NumResources; i++ {
			util += e.cfg.ResourceWeights[i] * e.utilSum[i]
		}
		m.AvgUtil = util / float64(e.slots)
		m.AvgLoadBal = e.loadBalSum / float64(e.slots)
	}
	m.EnergyWattSlots = e.energySum
	m.Cost = e.costSum
	e.perSLOMetrics(&m)
	return m
}

// perSLOMetrics fills Metrics.PerSLO from the completion records, reusing
// the env-owned wait buffers so repeated Metrics calls do not allocate in
// steady state.
func (e *Env) perSLOMetrics(m *Metrics) {
	for c := range e.sloWaits {
		e.sloWaits[c] = e.sloWaits[c][:0]
	}
	for _, r := range e.completed {
		c := sloIndex(r.Task.SLO)
		e.sloWaits[c] = append(e.sloWaits[c], float64(r.Wait()))
	}
	for c := range m.PerSLO {
		s := &m.PerSLO[c]
		s.Class = workload.SLOClass(c)
		waits := e.sloWaits[c]
		s.Completed = len(waits)
		if len(waits) == 0 {
			continue
		}
		sort.Float64s(waits)
		sum := 0.0
		target := float64(e.cfg.Objectives.SLOWaitTarget[c])
		for _, w := range waits {
			sum += w
			if target > 0 && w > target {
				s.Violations++
			}
		}
		s.AvgWait = sum / float64(len(waits))
		s.WaitP50 = waitPercentile(waits, 0.50)
		s.WaitP95 = waitPercentile(waits, 0.95)
	}
}

// waitPercentile linearly interpolates a percentile of a sorted sample.
func waitPercentile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Records returns the completion records accumulated so far.
func (e *Env) Records() []TaskRecord { return e.completed }
