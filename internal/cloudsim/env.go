package cloudsim

import (
	"fmt"
	"math"

	"repro/internal/workload"
)

// NumResources is d in the paper: the number of resource dimensions
// (vCPU and memory).
const NumResources = 2

// Config parameterizes an Env. PadVMs / PadVCPUs are the federation-wide
// caps L and U^vcpu: every client's observation is padded to these sizes so
// all agents share network shapes (§4.1, "void" positions in Fig. 6).
type Config struct {
	VMs []VMSpec

	// Observation padding and normalization (federation-wide constants).
	PadVMs   int     // L: observation covers this many VM slots
	PadVCPUs int     // U^vcpu: per-VM vCPU slots in the observation
	MaxCPU   int     // U^vcpu normalization cap for requests/capacities
	MaxMem   float64 // U^mem normalization cap in GiB

	// TopK switches the observation and action space to the scalable
	// fixed-width form: the policy sees the TopK best-fitting candidate VMs
	// for the head task (plus aggregate utilization buckets, see
	// UtilBuckets) and actions address candidate slots, so StateDim and
	// NumActions stay constant as the cluster grows. 0 keeps the per-VM
	// observation over PadVMs slots. TopK ≥ len(VMs) leaves nothing to rank:
	// it is the per-VM layout over TopK slots (slot i = VM i), bit-identical
	// to TopK = 0 with PadVMs = TopK.
	TopK int
	// UtilBuckets adds 2·UtilBuckets+3 aggregate features to a TopK
	// observation: CPU and memory utilization histograms over all VMs plus
	// total used-CPU, used-memory, and queue-length summaries. 0 disables
	// the aggregate block.
	UtilBuckets int

	// Objectives is the per-SLO-class wait shaping; the zero value
	// reproduces the paper's reward (Eq. 6).
	Objectives ObjectiveWeights

	// MaxSteps caps an episode (0 means a generous default of
	// 50·len(tasks)+1000 steps).
	MaxSteps int
}

// DefaultConfig returns the configuration used throughout the experiments:
// the cluster's own sizes as the observation pads and normalization caps.
func DefaultConfig(vms []VMSpec) Config {
	return Config{
		VMs:      vms,
		PadVMs:   len(vms),
		PadVCPUs: maxVCPU(vms),
		MaxCPU:   maxVCPU(vms),
		MaxMem:   maxMem(vms),
	}
}

func maxVCPU(vms []VMSpec) int {
	m := 1
	for _, v := range vms {
		if v.CPU > m {
			m = v.CPU
		}
	}
	return m
}

func maxMem(vms []VMSpec) float64 {
	m := 1.0
	for _, v := range vms {
		if v.Mem > m {
			m = v.Mem
		}
	}
	return m
}

// NumActions returns the action-space size |A| for a configuration: TopK+1
// candidate slots in scalable mode, PadVMs+1 VM slots otherwise; the last
// index is always Wait. Exposed at package level so training code can size
// policy networks from a Config alone.
func NumActions(cfg Config) int {
	if cfg.TopK > 0 {
		return cfg.TopK + 1
	}
	return cfg.PadVMs + 1
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case len(c.VMs) == 0:
		return fmt.Errorf("cloudsim: no VMs")
	case c.PadVMs < len(c.VMs):
		return fmt.Errorf("cloudsim: PadVMs %d < actual VMs %d", c.PadVMs, len(c.VMs))
	case c.MaxCPU < 1 || c.MaxMem <= 0:
		return fmt.Errorf("cloudsim: invalid normalization caps")
	case c.TopK < 0:
		return fmt.Errorf("cloudsim: TopK must be >= 0")
	case c.UtilBuckets < 0:
		return fmt.Errorf("cloudsim: UtilBuckets must be >= 0")
	}
	for _, v := range c.VMs {
		if v.CPU < 1 || v.Mem <= 0 {
			return fmt.Errorf("cloudsim: invalid VM spec %+v", v)
		}
		if v.CPU > c.PadVCPUs {
			return fmt.Errorf("cloudsim: VM has %d vCPUs > PadVCPUs %d", v.CPU, c.PadVCPUs)
		}
	}
	return nil
}

// completion is one entry of the cluster-wide completion heap: a task in a
// VM's store, keyed by the slot it finishes in with the task ID as the
// tie-break. The ordering makes same-slot retirements deterministic.
type completion struct {
	finish int
	id     int
	vm     int32
	slot   int32
}

// completionLess orders the heap by (finish slot, task ID).
func completionLess(a, b completion) bool {
	return a.finish < b.finish || (a.finish == b.finish && a.id < b.id)
}

// Env is one client's scheduling environment. It is deterministic: all
// stochasticity lives in the workload sampling and the agent's policy.
// An Env is not safe for concurrent use.
//
// The state engine is event-driven: every placement pushes its known finish
// slot onto a completion min-heap, and advancing time pops exactly the
// tasks that finish — in (finish slot, task ID) order — instead of scanning
// every VM. Arrivals are pulled incrementally from a TaskSource through a
// one-task peek buffer, so episodes are never materialized; the waiting
// queue is cursor-indexed so popping does not re-slice the backing array
// forever, and Reset reuses all buffers, keeping steady-state Step at zero
// allocations.
//
// In ranked top-k mode (0 < TopK < len(VMs)) the engine additionally keeps
// the candidate index and incremental whole-cluster accumulators (sums of
// utilizations, remaining fractions and their squares, busy power and
// price), so one Step costs O(TopK + completions in the slot) rather than
// O(VMs) — the property the 5000-VM cluster benchmarks pin.
type Env struct {
	cfg  Config
	vms  []*VM
	now  int
	step int

	// Streaming arrival state: src feeds tasks through a one-task peek.
	src         TaskSource
	ownSlice    SliceSource // backs the Reset([]workload.Task) path
	sliceBuf    []workload.Task
	peek        workload.Task
	hasPeek     bool
	srcDone     bool
	srcErr      error
	pulled      int // tasks pulled from src (including the peek)
	lastArrival int

	queue []workload.Task // waiting queue (FIFO); qhead..len are waiting
	qhead int

	heap []completion // min-heap of outstanding task completions

	mask    []bool    // scratch reused by FeasibleActions
	voidObs []float64 // all-VoidMarker observation every Observe starts from
	live    []int     // the positions Observe can write (LivePositions)

	totalTasks int // src.Total() at reset: the offered count

	// The placement fold Metrics reads: a placement's outcome is known when
	// it is made (fixed durations, no preemption), so no record is kept.
	placed      int
	responseSum int64
	makespan    int
	waits       [workload.NumSLOClasses]waitHist

	// Layout flags, fixed at Reset.
	ranked bool // slots are ranked candidates (0 < TopK < len(VMs)), else slot i = VM i
	aggOn  bool // aggregate observation block active (TopK>0 && UtilBuckets>0)
	hooks  bool // per-VM change hooks needed (ranked || aggOn)

	// Static cluster-wide capacity summaries.
	maxCapCPU int
	maxCapMem float64
	capCPUTot int
	capMemTot float64

	// The slot → VM view (see Candidates): the one mapping Observe, the
	// mask, Step and the heuristics read. idx and candValid serve the ranked
	// layout, whose slots are re-collected whenever the head task or a VM's
	// free capacity changes.
	idx       *vmIndex
	cand      []int32
	candValid bool

	// Ranked-layout incremental accumulators, maintained by the VM-change
	// hooks so per-slot stats cost O(1) instead of a cluster scan. The
	// per-VM layout keeps the exact full scans for bit-identity.
	sumUtil        [NumResources]float64
	sumRem         [NumResources]float64
	sumRem2        [NumResources]float64
	busyVMs        int
	sumBusyCPUUtil float64
	sumBusyPrice   float64

	// Aggregate-observation state (aggOn): per-bucket VM counts by
	// utilization, plus absolute used totals.
	histCPU []int
	histMem []int
	usedCPU int
	usedMem float64

	// Time-integrated accumulators for Eqs. (24)–(25). Slot 0 counts.
	utilSum    [NumResources]float64
	loadBalSum float64
	energySum  float64 // watt-slots across all VMs
	costSum    float64 // price-slots across busy VMs
	slots      int

	// retireHook, when set, observes every completion pop in order (test
	// hook for the invariant harness; nil in production).
	retireHook func(completion)
}

// NewEnv creates an environment and loads the given task set.
func NewEnv(cfg Config, tasks []workload.Task) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 50*len(tasks) + 1000
	}
	e := &Env{cfg: cfg}
	e.Reset(tasks)
	return e, nil
}

// MustNewEnv is NewEnv that panics on configuration errors (test helper).
func MustNewEnv(cfg Config, tasks []workload.Task) *Env {
	e, err := NewEnv(cfg, tasks)
	if err != nil {
		panic(err)
	}
	return e
}

// NewEnvSource creates an environment fed by a streaming task source, which
// must report its exact length (Total() ≥ 0).
func NewEnvSource(cfg Config, src TaskSource) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkTotal(src); err != nil {
		return nil, err
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 50*src.Total() + 1000
	}
	e := &Env{cfg: cfg}
	e.resetWith(src)
	return e, nil
}

// Reset reinitializes the environment with a new task set, keeping the
// configuration. Tasks must be sorted by arrival (workload generators
// guarantee this). All internal buffers are reused, so resetting with a
// same-shaped workload does not allocate in steady state.
func (e *Env) Reset(tasks []workload.Task) {
	e.sliceBuf = append(e.sliceBuf[:0], tasks...)
	e.ownSlice.reset(e.sliceBuf)
	e.resetWith(&e.ownSlice)
}

// ResetSource reinitializes the environment on a caller-provided streaming
// source. The source must be freshly positioned (rewind reusable sources
// before passing them) and report its exact length, as for NewEnvSource.
func (e *Env) ResetSource(src TaskSource) error {
	if err := checkTotal(src); err != nil {
		return err
	}
	e.resetWith(src)
	return nil
}

// checkTotal refuses a source that does not report its length: an episode is
// a finite task set, and Done and Metrics.Total are read against it.
func checkTotal(src TaskSource) error {
	if n := src.Total(); n < 0 {
		return fmt.Errorf("cloudsim: source reports total %d; an episode needs its exact length", n)
	}
	return nil
}

// resetWith re-derives every piece of episode state from the configuration
// and the given source.
func (e *Env) resetWith(src TaskSource) {
	if len(e.vms) != len(e.cfg.VMs) {
		e.vms = make([]*VM, len(e.cfg.VMs))
		for i := range e.vms {
			e.vms[i] = &VM{}
		}
	}
	for i, spec := range e.cfg.VMs {
		e.vms[i].reset(spec)
	}
	e.now = 0
	e.step = 0
	e.queue = e.queue[:0]
	e.qhead = 0
	e.heap = e.heap[:0]
	e.placed, e.responseSum, e.makespan = 0, 0, 0
	for c := range e.waits {
		e.waits[c] = waitHist{runs: e.waits[c].runs[:0]}
	}

	e.src = src
	e.totalTasks = src.Total()
	e.srcDone = false
	e.srcErr = nil
	e.hasPeek = false
	e.pulled = 0
	e.lastArrival = 0

	e.ranked = e.cfg.TopK > 0 && e.cfg.TopK < len(e.vms)
	e.aggOn = e.cfg.TopK > 0 && e.cfg.UtilBuckets > 0
	e.hooks = e.ranked || e.aggOn
	e.maxCapCPU, e.maxCapMem = 0, 0
	e.capCPUTot, e.capMemTot = 0, 0
	for _, vm := range e.vms {
		if vm.Spec.CPU > e.maxCapCPU {
			e.maxCapCPU = vm.Spec.CPU
		}
		if vm.Spec.Mem > e.maxCapMem {
			e.maxCapMem = vm.Spec.Mem
		}
		e.capCPUTot += vm.Spec.CPU
		e.capMemTot += vm.Spec.Mem
	}

	e.initScalableState()
	e.utilSum = [NumResources]float64{}
	e.loadBalSum = 0
	e.energySum = 0
	e.costSum = 0
	e.slots = 0
	e.admitArrivals()
	e.accumulateSlotStats()
}

// initScalableState (re)builds the slot view, the all-void observation, the
// candidate index, the incremental whole-cluster accumulators, and the
// aggregate-observation histograms for the freshly reset (all-idle) cluster.
func (e *Env) initScalableState() {
	n := len(e.vms)
	// Slot i = VM i, void past the cluster: the per-VM layout's view for the
	// whole episode, and overwritten by the first Candidates call of the
	// ranked one.
	e.cand = e.cand[:0]
	for s := 0; s < e.cfg.padSlots(); s++ {
		vi := int32(-1)
		if s < n {
			vi = int32(s)
		}
		e.cand = append(e.cand, vi)
	}
	e.candValid = false
	if dim := e.StateDim(); len(e.voidObs) != dim {
		e.voidObs = make([]float64, dim)
		for i := range e.voidObs {
			e.voidObs[i] = VoidMarker
		}
		e.live = e.livePositions()
	}
	if e.ranked {
		// The index's shape follows from the configuration alone, so one
		// allocation serves every episode of this environment.
		if e.idx == nil {
			e.idx = newVMIndex(n, e.maxCapCPU, e.maxCapMem)
		} else {
			e.idx.clear()
		}
		for i, vm := range e.vms {
			e.idx.add(i, cpuClassOf(vm.freeCPU), memClassOf(vm.freeMem))
		}
		for r := 0; r < NumResources; r++ {
			e.sumUtil[r] = 0
			e.sumRem[r] = float64(n)  // every rem is exactly 1 at reset
			e.sumRem2[r] = float64(n) // 1² per VM
		}
		e.busyVMs = 0
		e.sumBusyCPUUtil = 0
		e.sumBusyPrice = 0
	}
	if e.aggOn {
		b := e.cfg.UtilBuckets
		if len(e.histCPU) != b {
			e.histCPU = make([]int, b)
			e.histMem = make([]int, b)
		}
		for i := 0; i < b; i++ {
			e.histCPU[i], e.histMem[i] = 0, 0
		}
		e.histCPU[0], e.histMem[0] = n, n // idle VMs all sit in bucket 0
		e.usedCPU = 0
		e.usedMem = 0
	}
}

// utilBucket maps a utilization in [0,1] to its histogram bucket.
func (e *Env) utilBucket(u float64) int {
	b := int(u * float64(e.cfg.UtilBuckets))
	if b >= e.cfg.UtilBuckets {
		b = e.cfg.UtilBuckets - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// preVMChange removes VM i's contributions from every incremental structure
// before a place/retire mutates it. Paired with postVMChange.
func (e *Env) preVMChange(i int) {
	if !e.hooks {
		return
	}
	v := e.vms[i]
	if e.ranked {
		e.idx.remove(i, cpuClassOf(v.freeCPU), memClassOf(v.freeMem))
		for r := 0; r < NumResources; r++ {
			e.sumUtil[r] -= v.util[r]
			e.sumRem[r] -= v.rem[r]
			e.sumRem2[r] -= v.rem[r] * v.rem[r]
		}
		if v.live > 0 {
			e.busyVMs--
			e.sumBusyCPUUtil -= v.util[0]
			e.sumBusyPrice -= e.vmPrice(i)
		}
	}
	if e.aggOn {
		e.histCPU[e.utilBucket(v.util[0])]--
		e.histMem[e.utilBucket(v.util[1])]--
		e.usedCPU -= v.Spec.CPU - v.freeCPU
		e.usedMem -= v.Spec.Mem - v.freeMem
	}
}

// postVMChange re-adds VM i's contributions after a place/retire and
// invalidates the candidate cache.
func (e *Env) postVMChange(i int) {
	e.candValid = false
	if !e.hooks {
		return
	}
	v := e.vms[i]
	if e.ranked {
		e.idx.add(i, cpuClassOf(v.freeCPU), memClassOf(v.freeMem))
		for r := 0; r < NumResources; r++ {
			e.sumUtil[r] += v.util[r]
			e.sumRem[r] += v.rem[r]
			e.sumRem2[r] += v.rem[r] * v.rem[r]
		}
		if v.live > 0 {
			e.busyVMs++
			e.sumBusyCPUUtil += v.util[0]
			e.sumBusyPrice += e.vmPrice(i)
		}
	}
	if e.aggOn {
		e.histCPU[e.utilBucket(v.util[0])]++
		e.histMem[e.utilBucket(v.util[1])]++
		e.usedCPU += v.Spec.CPU - v.freeCPU
		e.usedMem += v.Spec.Mem - v.freeMem
	}
}

// Config returns the environment configuration.
func (e *Env) Config() Config { return e.cfg }

// Now returns the current time slot.
func (e *Env) Now() int { return e.now }

// QueueLen returns the number of waiting tasks.
func (e *Env) QueueLen() int { return len(e.queue) - e.qhead }

// SourceErr returns the error that shut down the episode's task source
// (malformed task, arrival-order regression, or a failing source), or nil.
// After a source failure the environment stops pulling and the episode
// completes deterministically over the tasks already admitted.
func (e *Env) SourceErr() error { return e.srcErr }

// HeadTask returns the task at the head of the waiting queue.
func (e *Env) HeadTask() (workload.Task, bool) {
	if e.qhead == len(e.queue) {
		return workload.Task{}, false
	}
	return e.queue[e.qhead], true
}

// popHead removes the waiting queue's head. Popping advances a cursor
// rather than re-slicing, and the buffer is compacted once the consumed
// prefix dominates it, so a long episode does not pin the whole backing
// array the way `queue = queue[1:]` did.
func (e *Env) popHead() {
	e.qhead++
	e.candValid = false
	switch {
	case e.qhead == len(e.queue):
		e.queue = e.queue[:0]
		e.qhead = 0
	case e.qhead >= 64 && 2*e.qhead >= len(e.queue):
		n := copy(e.queue, e.queue[e.qhead:])
		e.queue = e.queue[:n]
		e.qhead = 0
	}
}

// NumActions returns |A|: TopK+1 candidate slots in scalable mode,
// PadVMs+1 VM slots otherwise; the last action index is Wait.
func (e *Env) NumActions() int { return NumActions(e.cfg) }

// WaitAction returns the index encoding the paper's action −1 (do nothing).
func (e *Env) WaitAction() int { return e.NumActions() - 1 }

// Done reports whether the episode has ended: every task it will ever admit
// has been scheduled, or the step cap was hit.
func (e *Env) Done() bool { return e.step >= e.cfg.MaxSteps || e.exhausted() }

// Truncated reports whether the episode ended on the MaxSteps cap with work
// still outstanding — a horizon cut, not a terminal. The scheduling MDP
// would have kept running, so value estimation should bootstrap the tail
// (see rl.Truncator) instead of treating the unfinished tasks as worthless.
func (e *Env) Truncated() bool { return e.step >= e.cfg.MaxSteps && !e.exhausted() }

// exhausted reports that no task is left to schedule: the source is done
// (drained, or shut down by srcFail), the peek holds nothing and the queue
// is empty.
func (e *Env) exhausted() bool { return e.srcDone && !e.hasPeek && e.QueueLen() == 0 }

// FeasibleActions returns a mask over the action space: placements that fit
// the head task, plus Wait (always allowed). With an empty queue only Wait
// is feasible. The returned slice is a scratch buffer reused by the next
// FeasibleActions call; callers that need to retain it across steps should
// use FeasibleActionsInto with their own buffer.
func (e *Env) FeasibleActions() []bool {
	e.mask = e.FeasibleActionsInto(e.mask)
	return e.mask
}

// FeasibleActionsInto writes the feasibility mask into dst (reallocating
// when dst is too small) and returns the buffer, so rollout loops can stay
// allocation-free. A slot is feasible when it holds a VM (see Candidates)
// that fits the head task.
func (e *Env) FeasibleActionsInto(dst []bool) []bool {
	n := e.NumActions()
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = false
	}
	dst[e.WaitAction()] = true
	head, slots := e.headSlots()
	for s, vi := range slots {
		dst[s] = e.slotFits(vi, head)
	}
	return dst
}

// headSlots returns the head task and the slot view to place it through, or
// no slots at all when the queue is empty (nothing to place).
func (e *Env) headSlots() (workload.Task, []int32) {
	head, ok := e.HeadTask()
	if !ok {
		return head, nil
	}
	return head, e.Candidates()
}

// slotFits reports whether a slot's VM (vi from Candidates, -1 = void) can
// run t now.
func (e *Env) slotFits(vi int32, t workload.Task) bool {
	return vi >= 0 && e.vms[vi].Fits(t)
}

// anyFeasiblePlacement reports whether some slot's VM fits the head task.
// Every VM is behind a slot in the per-VM layout, and the ranked layout
// leaves slot 0 void only when no VM in the cluster fits.
func (e *Env) anyFeasiblePlacement() bool {
	head, slots := e.headSlots()
	for _, vi := range slots {
		if e.slotFits(vi, head) {
			return true
		}
	}
	return false
}

// lazyPenalty is the reward for waiting despite a feasible VM: slightly
// worse than the worst invalid-placement penalty −e^Σw·util ≥ −e, so waiting
// never pays while a placement is possible.
const lazyPenalty = -8

// Step executes one action and returns the reward. Semantics (§4.2):
//
//   - Valid placement: the head task starts on the chosen VM now; reward
//     Eq. (6); time does NOT advance, so the agent may keep scheduling
//     within the slot.
//   - Invalid placement (a void slot, or a VM with insufficient free
//     resources): reward Eq. (9); the task stays queued and time advances
//     one slot.
//   - Wait with a feasible VM available: the lazy penalty; time advances.
//   - Wait with no feasible placement (or empty queue): reward 0; time
//     advances.
//
// Actions address slots; the slot is resolved to its VM through Candidates
// before the rules above apply.
//
// Step panics if called after Done or with an out-of-range action.
func (e *Env) Step(action int) float64 {
	if e.Done() {
		panic("cloudsim: Step after episode end")
	}
	if action < 0 || action >= e.NumActions() {
		panic(fmt.Sprintf("cloudsim: action %d out of range [0,%d)", action, e.NumActions()))
	}
	e.step++

	head, hasHead := e.HeadTask()
	if action == e.WaitAction() || !hasHead {
		reward := 0.0
		if hasHead && e.anyFeasiblePlacement() {
			reward = lazyPenalty
			mSimLazyWaits.Inc()
		} else {
			mSimIdleWaits.Inc()
		}
		e.advanceTime()
		return reward
	}

	vmIdx := int(e.Candidates()[action])
	if vmIdx < 0 || !e.vms[vmIdx].Fits(head) {
		// Invalid: denied and penalized by the target VM's utilization
		// (Eq. 9). Void slots count as fully utilized.
		reward := e.invalidPenalty(vmIdx)
		mSimInvalid.Inc()
		e.advanceTime()
		return reward
	}

	// Valid placement.
	mSimPlacements.Inc()
	vm := e.vms[vmIdx]
	before := e.loadBalance()
	e.preVMChange(vmIdx)
	slot := vm.place(head, e.now)
	e.postVMChange(vmIdx)
	e.heapPush(completion{
		finish: e.now + head.Duration,
		id:     head.ID,
		vm:     int32(vmIdx),
		slot:   int32(slot),
	})
	e.popHead()
	after := e.loadBalance()
	e.placed++
	e.responseSum += int64(e.now + head.Duration - head.Arrival)
	e.makespan = max(e.makespan, e.now+head.Duration)
	e.waits[sloIndex(head.SLO)].add(e.now - head.Arrival)
	reward := e.placementReward(head, before, after)
	// SLO shaping: a per-class linear wait cost on top of Eq. (6), guarded
	// so the zero-cost default reproduces the unshaped reward bit-for-bit.
	if cost := e.cfg.Objectives.SLOWaitCost[sloIndex(head.SLO)]; cost != 0 {
		reward -= cost * float64(e.now-head.Arrival)
	}
	return reward
}

// resourceWeights are the w_i of Eqs. (4), (9) and (24), equal across the
// resources. Nothing writes it (Go has no array constants).
var resourceWeights = [NumResources]float64{0.5, 0.5}

// invalidPenalty implements Eq. (9): −e^{Σ_i w_i·util_i} for the denied VM.
// vmIdx < 0 is a void slot, treated as fully utilized.
func (e *Env) invalidPenalty(vmIdx int) float64 {
	s := 0.0
	if vmIdx >= 0 {
		for i := 0; i < NumResources; i++ {
			s += resourceWeights[i] * e.vms[vmIdx].utilization(i)
		}
	} else {
		// Padded void VM: treat as fully utilized.
		for i := 0; i < NumResources; i++ {
			s += resourceWeights[i]
		}
	}
	return -math.Exp(s)
}

// rho is ρ in Eq. (6): the weight of the response reward against the
// load-balance reward.
const rho = 0.5

// placementReward implements Eqs. (6)–(8).
func (e *Env) placementReward(t workload.Task, loadBefore, loadAfter float64) float64 {
	wait := float64(e.now - t.Arrival)
	run := float64(t.Duration)
	res := wait + run
	// Eq. (7): R_res = e^{j_run/j_res} ∈ (1, e]; rescale to (0,1] so the two
	// reward terms share a scale (the paper normalizes by j_run; dividing by
	// e keeps the same ordering and bounds the sum by 1).
	rRes := math.Exp(run/res) / math.E

	// Eq. (8) as printed: Load_c = LoadBal(t') − LoadBal(t); reward 1 when
	// the placement improves (or preserves) balance, else the raw Load_c
	// (a small positive number well below 1, so worsening placements earn
	// strictly less than improving ones).
	loadC := loadAfter - loadBefore
	rLoad := 1.0
	if loadC > 0 {
		rLoad = loadC
	}
	return rho*rRes + (1-rho)*rLoad
}

// loadBalance implements Eq. (4): the weighted std-dev of per-VM remaining
// fractions across resources. Lower is more balanced. Ranked mode reads the
// incrementally maintained sums (O(1)); other modes keep the exact two-pass
// scan for bit-identity with the small-cluster engine.
func (e *Env) loadBalance() float64 {
	if e.ranked {
		return e.loadBalanceFast()
	}
	n := float64(len(e.vms))
	total := 0.0
	for i := 0; i < NumResources; i++ {
		avg := 0.0
		for _, vm := range e.vms {
			avg += vm.remainingFraction(i)
		}
		avg /= n
		variance := 0.0
		for _, vm := range e.vms {
			d := vm.remainingFraction(i) - avg
			variance += d * d
		}
		total += resourceWeights[i] * math.Sqrt(variance/n)
	}
	return total
}

// loadBalanceFast computes Eq. (4) from the running Σrem and Σrem² sums:
// Var = E[X²] − E[X]², clamped at 0 against accumulated rounding.
func (e *Env) loadBalanceFast() float64 {
	n := float64(len(e.vms))
	total := 0.0
	for i := 0; i < NumResources; i++ {
		mean := e.sumRem[i] / n
		variance := e.sumRem2[i]/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		total += resourceWeights[i] * math.Sqrt(variance)
	}
	return total
}

// advanceTime moves the clock one slot: tasks whose finish slot has come
// are popped off the completion heap (in deterministic (finish, task ID)
// order), new arrivals join the queue, and the per-slot metric accumulators
// update. The pop loop touches only tasks that actually finish, so slots
// where nothing completes cost O(1) instead of a full cluster scan.
func (e *Env) advanceTime() {
	e.now++
	for len(e.heap) > 0 && e.heap[0].finish <= e.now {
		c := e.heapPop()
		e.preVMChange(int(c.vm))
		e.vms[c.vm].retire(int(c.slot))
		e.postVMChange(int(c.vm))
		if e.retireHook != nil {
			e.retireHook(c)
		}
	}
	e.admitArrivals()
	e.accumulateSlotStats()
}

// heapPush adds a completion to the min-heap.
func (e *Env) heapPush(c completion) {
	e.heap = append(e.heap, c)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !completionLess(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// heapPop removes and returns the earliest completion.
func (e *Env) heapPop() completion {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && completionLess(e.heap[l], e.heap[small]) {
			small = l
		}
		if r < n && completionLess(e.heap[r], e.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		e.heap[i], e.heap[small] = e.heap[small], e.heap[i]
		i = small
	}
	return top
}

// validateTask rejects requests the simulator cannot execute: zero or
// negative vCPUs, non-positive / non-finite memory, zero or negative
// duration.
func validateTask(t workload.Task) error {
	switch {
	case t.CPU < 1:
		return fmt.Errorf("cloudsim: task %d requests %d vCPUs", t.ID, t.CPU)
	case !(t.Mem > 0) || math.IsInf(t.Mem, 1):
		// The negated comparison also catches NaN.
		return fmt.Errorf("cloudsim: task %d requests non-positive or non-finite memory %v", t.ID, t.Mem)
	case t.Duration < 1:
		return fmt.Errorf("cloudsim: task %d has duration %d", t.ID, t.Duration)
	}
	return nil
}

// srcFail shuts the task source down deterministically: no further pulls,
// so Done() is reachable over exactly the pre-failure work. The offered
// total stands: Metrics reports the tasks the failure cost as unscheduled.
func (e *Env) srcFail(err error) {
	e.srcErr = err
	e.srcDone = true
	e.hasPeek = false
}

// admitArrivals pulls tasks from the source through the one-task peek
// buffer and admits everything that has arrived by the current slot. Every
// pull is validated (well-formed request, non-decreasing arrival); the
// first violation shuts the source down via srcFail, never corrupting
// engine state.
func (e *Env) admitArrivals() {
	for {
		if !e.hasPeek {
			if e.srcDone {
				return
			}
			t, ok := e.src.Next()
			if !ok {
				e.srcDone = true
				if err := e.src.Err(); err != nil {
					e.srcFail(err)
				} else if e.pulled < e.totalTasks {
					e.srcFail(fmt.Errorf("cloudsim: source ended after %d of %d tasks", e.pulled, e.totalTasks))
				}
				return
			}
			if e.pulled == e.totalTasks {
				e.srcFail(fmt.Errorf("cloudsim: source emitted more than its %d tasks", e.totalTasks))
				return
			}
			if err := validateTask(t); err != nil {
				e.srcFail(err)
				return
			}
			if t.Arrival < 0 || t.Arrival < e.lastArrival {
				e.srcFail(fmt.Errorf("cloudsim: task %d arrival %d regresses (last %d)", t.ID, t.Arrival, e.lastArrival))
				return
			}
			e.pulled++
			e.lastArrival = t.Arrival
			e.peek = t
			e.hasPeek = true
		}
		if e.peek.Arrival > e.now {
			return
		}
		e.queue = append(e.queue, e.peek)
		e.hasPeek = false
		e.candValid = false
	}
}

// accumulateSlotStats folds one slot into the Eq. (24)–(25) and energy/cost
// accumulators. Ranked mode reads the incrementally maintained sums (O(1));
// other modes keep the exact cluster scan for bit-identity.
func (e *Env) accumulateSlotStats() {
	if e.ranked {
		n := float64(len(e.vms))
		for i := 0; i < NumResources; i++ {
			e.utilSum[i] += e.sumUtil[i] / n
		}
		e.loadBalSum += e.loadBalanceFast()
		e.energySum += float64(e.busyVMs)*idleWatts + (peakWatts-idleWatts)*e.sumBusyCPUUtil
		e.costSum += e.sumBusyPrice
		e.slots++
		return
	}
	for i := 0; i < NumResources; i++ {
		s := 0.0
		for _, vm := range e.vms {
			s += vm.utilization(i)
		}
		e.utilSum[i] += s / float64(len(e.vms))
	}
	e.loadBalSum += e.loadBalance()
	for i, vm := range e.vms {
		busy := vm.RunningTasks() > 0
		e.energySum += draw(vm.utilization(0), busy)
		if busy {
			e.costSum += e.vmPrice(i)
		}
	}
	e.slots++
}
