package cloudsim

import "repro/internal/workload"

// The paper's reward is Eq. (6) alone; §4.2 only notes it "can be easily
// extended". What this file adds beside it is measurement, not reward: a
// linear power model and a per-slot billing model per VM behind the episode
// metrics Metrics.EnergyWattSlots and Metrics.Cost, and the per-SLO-class
// wait cost and target.

// The power model is the standard linear server power curve of a commodity
// 2-socket server: a powered-on VM draws idleWatts plus
// (peakWatts−idleWatts)·cpuUtilization. VMs with no running tasks are assumed
// scaled to zero (no draw) — the setting in which placement policy actually
// moves the energy bill.
const (
	idleWatts = 100.0
	peakWatts = 300.0
)

// draw returns the instantaneous wattage for a VM at the given CPU
// utilization; zero when the VM runs nothing.
func draw(cpuUtil float64, busy bool) float64 {
	if !busy {
		return 0
	}
	return idleWatts + (peakWatts-idleWatts)*cpuUtil
}

// ObjectiveWeights holds the SLO shaping of the placement reward and the
// per-class metrics: SLOWaitCost subtracts cost·wait from every placement of
// a task in that class, and SLOWaitTarget sets the per-class wait threshold
// (in slots) behind Metrics.PerSLO violation counts. All-zero fields
// reproduce the paper's reward and metrics bit-for-bit.
type ObjectiveWeights struct {
	SLOWaitCost   [workload.NumSLOClasses]float64
	SLOWaitTarget [workload.NumSLOClasses]int
}

// sloIndex clamps a task's class into the weights/metrics range, so tasks
// from hand-built traces with out-of-range classes count as best-effort.
func sloIndex(c workload.SLOClass) int {
	if c < 0 || int(c) >= workload.NumSLOClasses {
		return 0
	}
	return int(c)
}

// vmPrice returns the per-slot price of VM i: proportional to capacity
// (CPU + Mem/8, a rough on-demand pricing shape).
func (e *Env) vmPrice(i int) float64 {
	spec := e.vms[i].Spec
	return float64(spec.CPU) + spec.Mem/8
}
