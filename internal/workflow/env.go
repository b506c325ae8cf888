package workflow

import (
	"sort"

	"repro/internal/cloudsim"
	"repro/internal/workload"
)

// Env schedules workflow DAGs on a cloudsim cluster. It implements
// rl.Environment: the agents see exactly the same observation/action/reward
// interface as the flat-task environment, but a stage only enters the
// waiting queue once all of its dependencies have finished executing.
type Env struct {
	inner *cloudsim.Env
	cfg   cloudsim.Config
	wfs   []Workflow

	// Global stage ids: gid = offset[wf] + stage index.
	offset []int
	total  int

	// DAG bookkeeping.
	indegree  []int   // unmet dependencies per gid
	succs     [][]int // gid -> dependent gids
	released  []bool
	completed []bool
	admitted  []bool // per workflow: roots injected

	// Placed-but-unfinished stages, ordered by finish slot.
	outstanding []placedStage
	processed   int // prefix of inner.Records() already scanned
}

type placedStage struct {
	gid    int
	finish int
}

// NewEnv builds a workflow environment. The configuration is the same as
// cloudsim's; stage demands should already fit the cluster (see ClampToVMs).
func NewEnv(cfg cloudsim.Config, wfs []Workflow) (*Env, error) {
	total := 0
	for i := range wfs {
		if err := wfs[i].Validate(); err != nil {
			return nil, err
		}
		total += wfs[i].NumStages()
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 50*total + 1000
	}
	e := &Env{cfg: cfg}
	inner, err := cloudsim.NewEnv(cfg, nil)
	if err != nil {
		return nil, err
	}
	e.inner = inner
	e.Reset(wfs)
	return e, nil
}

// Reset reinitializes the environment with a new workflow set.
func (e *Env) Reset(wfs []Workflow) {
	e.wfs = wfs
	e.offset = make([]int, len(wfs))
	e.total = 0
	for i := range wfs {
		e.offset[i] = e.total
		e.total += wfs[i].NumStages()
	}
	e.indegree = make([]int, e.total)
	e.succs = make([][]int, e.total)
	for wi := range wfs {
		for si, s := range wfs[wi].Stages {
			gid := e.offset[wi] + si
			e.indegree[gid] = len(s.Deps)
			for _, d := range s.Deps {
				dep := e.offset[wi] + d
				e.succs[dep] = append(e.succs[dep], gid)
			}
		}
	}
	e.released = make([]bool, e.total)
	e.completed = make([]bool, e.total)
	e.admitted = make([]bool, len(wfs))
	e.outstanding = e.outstanding[:0]
	e.processed = 0

	e.inner.Reset(nil)
	e.inner.ExpectTotal(e.total)
	e.sync()
}

// gidToStage resolves a global stage id.
func (e *Env) gidToStage(gid int) (wf, stage int) {
	wf = sort.Search(len(e.offset), func(i int) bool { return e.offset[i] > gid }) - 1
	return wf, gid - e.offset[wf]
}

// sync releases everything releasable at the current slot: workflows whose
// arrival has come (roots) and stages whose dependencies have finished.
func (e *Env) sync() {
	now := e.inner.Now()
	// Collect newly placed stages from the inner records.
	recs := e.inner.Records()
	for ; e.processed < len(recs); e.processed++ {
		r := recs[e.processed]
		e.outstanding = append(e.outstanding, placedStage{gid: r.Task.ID, finish: r.Finish})
	}
	// Admit workflows that have arrived.
	for wi := range e.wfs {
		if !e.admitted[wi] && e.wfs[wi].Arrival <= now {
			e.admitted[wi] = true
			for _, root := range e.wfs[wi].Roots() {
				e.release(e.offset[wi]+root, now)
			}
		}
	}
	// Complete stages whose finish slot has passed, releasing successors.
	// Repeat until a fixed point (a completion can release a zero-duration
	// chain only through injection, so one pass suffices, but the loop is
	// cheap and robust).
	for changed := true; changed; {
		changed = false
		keep := e.outstanding[:0]
		for _, ps := range e.outstanding {
			if ps.finish <= now && !e.completed[ps.gid] {
				e.completed[ps.gid] = true
				for _, succ := range e.succs[ps.gid] {
					e.indegree[succ]--
					if e.indegree[succ] == 0 {
						e.release(succ, now)
					}
				}
				changed = true
			} else if !e.completed[ps.gid] {
				keep = append(keep, ps)
			}
		}
		e.outstanding = keep
	}
}

// release injects stage gid into the inner waiting queue.
func (e *Env) release(gid, now int) {
	if e.released[gid] {
		return
	}
	e.released[gid] = true
	wi, si := e.gidToStage(gid)
	s := e.wfs[wi].Stages[si]
	if err := e.inner.Inject(workload.Task{
		ID:       gid,
		Arrival:  now,
		CPU:      s.CPU,
		Mem:      s.Mem,
		Duration: s.Duration,
	}); err != nil {
		// Workflows are clamped to the cluster at construction, so a
		// rejected stage is an internal invariant violation, not user input.
		panic(err)
	}
}

// --- rl.Environment ---

// Observe delegates to the inner environment.
func (e *Env) Observe(dst []float64) []float64 { return e.inner.Observe(dst) }

// StateDim delegates to the inner environment.
func (e *Env) StateDim() int { return e.inner.StateDim() }

// NumActions delegates to the inner environment.
func (e *Env) NumActions() int { return e.inner.NumActions() }

// WaitAction delegates to the inner environment.
func (e *Env) WaitAction() int { return e.inner.WaitAction() }

// FeasibleActions delegates to the inner environment. The returned slice
// is the inner environment's scratch mask, reused by its next call.
func (e *Env) FeasibleActions() []bool { return e.inner.FeasibleActions() }

// Done delegates to the inner environment (all stages placed or step cap).
func (e *Env) Done() bool { return e.inner.Done() }

// Truncated delegates to the inner environment (step-cap cut with stages
// still outstanding), satisfying rl.Truncator.
func (e *Env) Truncated() bool { return e.inner.Truncated() }

// Step forwards the action and then releases any newly schedulable stages.
func (e *Env) Step(action int) float64 {
	r := e.inner.Step(action)
	e.sync()
	return r
}

// Drain finishes all running stages and settles the DAG bookkeeping.
func (e *Env) Drain() {
	e.inner.Drain()
	e.sync()
}

// Metrics returns the inner per-stage metrics (response, makespan,
// utilization, load balance over stages).
func (e *Env) Metrics() cloudsim.Metrics { return e.inner.Metrics() }

// Inner exposes the wrapped cloudsim environment.
func (e *Env) Inner() *cloudsim.Env { return e.inner }

// WorkflowRecord summarizes one finished workflow.
type WorkflowRecord struct {
	ID       int
	Arrival  int
	Finish   int // completion slot of the last stage
	Stages   int
	Critical int // critical-path lower bound
}

// Response returns the workflow's end-to-end latency.
func (r WorkflowRecord) Response() int { return r.Finish - r.Arrival }

// Stretch returns response / critical-path — 1.0 is the unbounded-cluster
// optimum; higher means queueing or serialization overhead.
func (r WorkflowRecord) Stretch() float64 {
	if r.Critical == 0 {
		return 1
	}
	return float64(r.Response()) / float64(r.Critical)
}

// WorkflowRecords returns a record per fully completed workflow.
func (e *Env) WorkflowRecords() []WorkflowRecord {
	finishByGid := map[int]int{}
	for _, rec := range e.inner.Records() {
		finishByGid[rec.Task.ID] = rec.Finish
	}
	var out []WorkflowRecord
	for wi, w := range e.wfs {
		finish := 0
		done := true
		for si := range w.Stages {
			f, ok := finishByGid[e.offset[wi]+si]
			if !ok || !e.completed[e.offset[wi]+si] && f > e.inner.Now() {
				// Stage not placed, or placed but not finished by now.
				if !ok {
					done = false
					break
				}
			}
			if f > finish {
				finish = f
			}
		}
		if !done {
			continue
		}
		out = append(out, WorkflowRecord{
			ID: w.ID, Arrival: w.Arrival, Finish: finish,
			Stages: w.NumStages(), Critical: w.CriticalPath(),
		})
	}
	return out
}

// TotalStages returns the number of stages across all workflows.
func (e *Env) TotalStages() int { return e.total }
