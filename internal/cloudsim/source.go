package cloudsim

import (
	"math/rand"

	"repro/internal/workload"
)

// TaskSource feeds an episode's arrivals incrementally, so thousand-VM /
// million-task episodes never materialize a full []workload.Task. The
// environment pulls at most one task ahead of the clock (a single-task peek
// buffer), which keeps memory O(queue), not O(episode).
//
// Contract: Next returns tasks with non-decreasing Arrival slots and valid
// requests (CPU ≥ 1, finite Mem > 0, Duration ≥ 1, Arrival ≥ 0) — the
// environment re-validates every pull and shuts the source down
// deterministically on the first violation (see Env.SourceErr). Total
// reports the exact number of tasks the source offers — an episode is a
// finite task set, and the environment refuses a negative total. Err reports
// why Next returned false early, nil after a clean end.
type TaskSource interface {
	Next() (workload.Task, bool)
	Total() int
	Err() error
}

// SliceSource adapts a materialized task slice to the TaskSource interface —
// the trivial source backing the existing Env.Reset([]workload.Task) path.
type SliceSource struct {
	tasks []workload.Task
	pos   int
}

// reset points the source at a caller-owned backing slice without copying
// (internal: Env reuses its own buffer across Resets to stay allocation-free).
func (s *SliceSource) reset(tasks []workload.Task) {
	s.tasks = tasks
	s.pos = 0
}

// Next implements TaskSource.
func (s *SliceSource) Next() (workload.Task, bool) {
	if s.pos >= len(s.tasks) {
		return workload.Task{}, false
	}
	t := s.tasks[s.pos]
	s.pos++
	return t, true
}

// Total implements TaskSource.
func (s *SliceSource) Total() int { return len(s.tasks) }

// Err implements TaskSource: a slice never fails.
func (s *SliceSource) Err() error { return nil }

// SamplerSource draws tasks lazily from a compiled workload spec via
// workload.Compiled.Stream, so the task sequence is bit-identical to
// Compiled.Sample (and, for a single model, workload.Model.Sample) with the
// same seed but the episode is generated one task at a time. An optional
// clamp cluster applies ClampTask per task, mirroring the
// ClampTasks(Sample(...)) idiom without the intermediate slice.
type SamplerSource struct {
	spec   *workload.Compiled
	seed   int64
	n      int
	clamp  []VMSpec
	stream workload.TaskStream
}

// NewSamplerSource returns a source emitting n tasks from the model under
// the given seed: the model is a one-client spec, which streams from the
// caller's RNG directly. When clamp is non-nil, every task is clamped to fit
// at least one of the given VMs (see ClampTask).
func NewSamplerSource(m *workload.Model, seed int64, n int, clamp []VMSpec) *SamplerSource {
	one := &workload.Compiled{Name: m.Name, Clients: []workload.CompiledClient{{ID: m.Name, Fraction: 1, Model: m}}}
	return NewSpecSource(one, seed, n, clamp)
}

// NewSpecSource returns a source emitting n tasks from the compiled spec
// under the given seed, clamped like NewSamplerSource's.
func NewSpecSource(spec *workload.Compiled, seed int64, n int, clamp []VMSpec) *SamplerSource {
	s := &SamplerSource{spec: spec, seed: seed, n: n, clamp: clamp}
	s.Rewind()
	return s
}

// Next implements TaskSource.
func (s *SamplerSource) Next() (workload.Task, bool) {
	t, ok := s.stream.Next()
	if !ok {
		return workload.Task{}, false
	}
	if s.clamp != nil {
		t = ClampTask(t, s.clamp)
	}
	return t, true
}

// Total implements TaskSource.
func (s *SamplerSource) Total() int { return s.n }

// Err implements TaskSource: sampling never fails.
func (s *SamplerSource) Err() error { return nil }

// Rewind restarts the stream from the seed, regenerating the identical task
// sequence (for repeated episodes).
func (s *SamplerSource) Rewind() {
	s.stream = s.spec.Stream(rand.New(rand.NewSource(s.seed)), s.n)
}
