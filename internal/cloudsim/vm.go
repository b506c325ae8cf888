// Package cloudsim implements the paper's cloud task-scheduling environment
// (§4.1–4.2): a discrete-time cluster of heterogeneous VMs, a FIFO waiting
// queue fed by a workload trace, the three-part state encoding
// (S^VM, S^vCPU, S^Queue), the composite reward (response time + load
// balancing, with invalid-action and lazy-wait penalties), and the four
// evaluation metrics (average response time, makespan, average utilization,
// average load balancing). It also provides classic heuristic schedulers
// (first-fit, best-fit, worst-fit, random) as sanity baselines.
package cloudsim

import (
	"fmt"

	"repro/internal/workload"
)

// VMSpec describes a virtual machine's capacity: vCPU count and memory GiB.
type VMSpec struct {
	CPU int
	Mem float64
}

// running is one task executing on a VM, stored in the VM's dense task
// store. Store slots are recycled through a free list, so the vcpus slice
// keeps its capacity across occupants and steady-state placement does not
// allocate.
type running struct {
	task   workload.Task
	start  int // slot the task was placed
	vcpus  []int
	active bool
}

// VM is a simulated virtual machine. The zero value is unusable; create VMs
// through NewEnv.
//
// The hot-path state is incremental: placements and retirements update the
// dense per-vCPU arrays and the cached utilization/remaining fractions, so
// Observe and the reward terms never walk a task collection. Tasks live in
// a slice-backed store addressed by slot index (not a map), which keeps
// retirement order under the environment's control — the completion heap in
// Env retires tasks in (finish slot, task ID) order, making the float
// accumulation into freeMem deterministic. The previous map-backed store
// retired same-slot tasks in Go map-iteration order, so two tasks finishing
// together could sum their freed memory in either order and produce runs
// that differ in the last bit.
type VM struct {
	Spec    VMSpec
	freeCPU int
	freeMem float64

	// store is the dense task store; freeSlots lists recyclable indices and
	// live counts the occupied ones.
	store     []running
	freeSlots []int
	live      int

	// Per-vCPU state mirrored for Observe: vcpuOwner[k] is the store slot
	// occupying vCPU k (or -1), with the occupant's placement slot and
	// duration alongside so progress needs no indirection.
	vcpuOwner []int
	vcpuStart []int
	vcpuDur   []int

	// Cached pure functions of (Spec, freeCPU, freeMem), refreshed on every
	// place/retire. util is the used fraction per resource, rem = 1 − util.
	util [NumResources]float64
	rem  [NumResources]float64
}

// reset restores the VM to an empty machine with the given capacity,
// reusing every internal buffer it already owns.
func (v *VM) reset(spec VMSpec) {
	v.Spec = spec
	v.freeCPU = spec.CPU
	v.freeMem = spec.Mem
	if cap(v.vcpuOwner) < spec.CPU {
		v.vcpuOwner = make([]int, spec.CPU)
		v.vcpuStart = make([]int, spec.CPU)
		v.vcpuDur = make([]int, spec.CPU)
	}
	v.vcpuOwner = v.vcpuOwner[:spec.CPU]
	v.vcpuStart = v.vcpuStart[:spec.CPU]
	v.vcpuDur = v.vcpuDur[:spec.CPU]
	for i := range v.vcpuOwner {
		v.vcpuOwner[i] = -1
	}
	// Keep the store entries (and their vcpus capacity); recycle every slot.
	v.freeSlots = v.freeSlots[:0]
	for i := len(v.store) - 1; i >= 0; i-- {
		v.store[i].active = false
		v.freeSlots = append(v.freeSlots, i)
	}
	v.live = 0
	v.refreshCache()
}

// refreshCache recomputes the cached utilization and remaining fractions.
// Both are pure functions of the free counters, so the cached values are
// bit-identical to computing them on demand.
func (v *VM) refreshCache() {
	if v.Spec.CPU == 0 {
		v.util[0] = 0
	} else {
		v.util[0] = float64(v.Spec.CPU-v.freeCPU) / float64(v.Spec.CPU)
	}
	if v.Spec.Mem == 0 {
		v.util[1] = 0
	} else {
		v.util[1] = (v.Spec.Mem - v.freeMem) / v.Spec.Mem
	}
	for i := 0; i < NumResources; i++ {
		v.rem[i] = 1 - v.util[i]
	}
}

// Fits reports whether the task's request fits in the VM's free resources.
func (v *VM) Fits(t workload.Task) bool {
	return t.CPU <= v.freeCPU && t.Mem <= v.freeMem
}

// place starts t on the VM at the given slot and returns the store index
// holding it (the handle the completion heap retires it by). The caller
// must have verified Fits; place panics otherwise (an environment
// invariant violation).
func (v *VM) place(t workload.Task, now int) int {
	if !v.Fits(t) {
		panic(fmt.Sprintf("cloudsim: place on full VM (task %d needs %d/%.2f, free %d/%.2f)",
			t.ID, t.CPU, t.Mem, v.freeCPU, v.freeMem))
	}
	var slot int
	if n := len(v.freeSlots); n > 0 {
		slot = v.freeSlots[n-1]
		v.freeSlots = v.freeSlots[:n-1]
	} else {
		v.store = append(v.store, running{})
		slot = len(v.store) - 1
	}
	r := &v.store[slot]
	r.task = t
	r.start = now
	r.active = true
	if cap(r.vcpus) < t.CPU {
		r.vcpus = make([]int, 0, t.CPU)
	}
	r.vcpus = r.vcpus[:0]
	assigned := 0
	for k := range v.vcpuOwner {
		if v.vcpuOwner[k] == -1 {
			v.vcpuOwner[k] = slot
			v.vcpuStart[k] = now
			v.vcpuDur[k] = t.Duration
			r.vcpus = append(r.vcpus, k)
			assigned++
			if assigned == t.CPU {
				break
			}
		}
	}
	if assigned != t.CPU {
		panic("cloudsim: free vCPU accounting out of sync")
	}
	v.freeCPU -= t.CPU
	v.freeMem -= t.Mem
	v.live++
	v.refreshCache()
	return slot
}

// retire releases the task in the given store slot: vCPUs, CPU, and memory
// return to the free pool and the slot joins the free list. Retirement
// order is chosen by the caller (Env's completion heap), which is what
// makes the freeMem float accumulation deterministic.
func (v *VM) retire(slot int) {
	r := &v.store[slot]
	if !r.active {
		panic("cloudsim: retire of an empty store slot")
	}
	for _, k := range r.vcpus {
		v.vcpuOwner[k] = -1
	}
	v.freeCPU += r.task.CPU
	v.freeMem += r.task.Mem
	r.active = false
	v.live--
	v.freeSlots = append(v.freeSlots, slot)
	v.refreshCache()
}

// utilization returns the used fraction of resource i (0 = CPU, 1 = memory).
func (v *VM) utilization(resource int) float64 {
	if resource < 0 || resource >= NumResources {
		panic(fmt.Sprintf("cloudsim: unknown resource %d", resource))
	}
	return v.util[resource]
}

// remainingFraction returns the free fraction of resource i — the "load"
// m^load(t,i) of Eq. (4), defined in the paper as remaining/total.
func (v *VM) remainingFraction(resource int) float64 {
	if resource < 0 || resource >= NumResources {
		panic(fmt.Sprintf("cloudsim: unknown resource %d", resource))
	}
	return v.rem[resource]
}

// progress returns the completion fraction of the task on vCPU k at slot
// now, in (0,1], or 0 if the vCPU is idle. A task that just started counts
// the current slot as in progress, so its progress is 1/duration.
func (v *VM) progress(k, now int) float64 {
	if v.vcpuOwner[k] == -1 {
		return 0
	}
	p := float64(now-v.vcpuStart[k]+1) / float64(v.vcpuDur[k])
	if p > 1 {
		p = 1
	}
	return p
}

// RunningTasks returns the number of tasks currently executing.
func (v *VM) RunningTasks() int { return v.live }

// forEachRunning calls f for every task currently executing, in store-slot
// order (test and invariant-check helper; the engine itself never scans).
func (v *VM) forEachRunning(f func(*running)) {
	for i := range v.store {
		if v.store[i].active {
			f(&v.store[i])
		}
	}
}
