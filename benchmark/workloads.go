package main

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// scale sizes the four workloads. full is a quarter of the issue's table in
// episodes/rounds (one common factor, no workload dropped) so that one pass
// takes 2.5-4 s on the 2-core reference box and a run of -seconds 15 holds
// four to six of them, whose median is what gets reported. smoke finishes
// each pass well under a second and exists for bench_test.go.
type scale struct {
	fig15Clients, fig15Tasks, fig15Episodes    int
	table3Clients, table3Tasks, table3Episodes int
	commEvery                                  int

	streamVMs, streamTasks    int
	streamEpisodes            int // alternating Google, Alibaba-2018
	pretrainTasks, pretrainEp int

	swarmClients, swarmK, swarmBuffer, swarmRounds int

	probeCalls int // timed calls per microprobe
}

var fullScale = scale{
	fig15Clients: 4, fig15Tasks: 200, fig15Episodes: 10,
	table3Clients: 10, table3Tasks: 120, table3Episodes: 15,
	commEvery: 5,
	streamVMs: 5000, streamTasks: 100_000, streamEpisodes: 2,
	pretrainTasks: 200, pretrainEp: 30,
	swarmClients: 104, swarmK: 52, swarmBuffer: 8, swarmRounds: 4,
	probeCalls: 50,
}

var smokeScale = scale{
	fig15Clients: 2, fig15Tasks: 20, fig15Episodes: 2,
	table3Clients: 3, table3Tasks: 20, table3Episodes: 2,
	commEvery: 1,
	streamVMs: 200, streamTasks: 2000, streamEpisodes: 1,
	pretrainTasks: 20, pretrainEp: 2,
	swarmClients: 8, swarmK: 4, swarmBuffer: 2, swarmRounds: 1,
	probeCalls: 3,
}

// unit is the outcome of one pass over a workload, through the product entry
// point or through the traced re-drive.
type unit struct {
	setup  time.Duration // everything before the timed region
	cost                 // the timed region
	steps  int64         // env steps (scheduling decisions) in the timed region
	ops    int           // operations attempted (episodes, tasks, activations)
	failed int
	why    []string // one line per kind of failure seen
	digest uint64
	// counts are exact per seed (steps, rounds, wire bytes, retries, ...):
	// the traced re-drive must reproduce every one of them.
	counts map[string]float64
	// vals are this pass's measured metric values, by metric name.
	vals map[string]float64
}

func newUnit() *unit {
	return &unit{counts: map[string]float64{}, vals: map[string]float64{}}
}

// fail records n failed operations for one reason.
func (u *unit) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	u.failed += n
	u.why = append(u.why, fmt.Sprintf(format, args...))
}

// benchWorkload is one set of inputs the benchmark runs, made from the seed alone.
type benchWorkload interface {
	name() string
	// serialised workloads run one thing at a time, so the children of
	// their trace's root span must cover it (trace.coverage_pct >= 95).
	serialised() bool
	// warm runs a short pass that fills the tensor pool and pays lazy
	// initialisation before anything is timed.
	warm(seed int64) error
	// product runs one pass through the product entry point, tracing off.
	product(seed int64, sc scale) (*unit, error)
	// traced re-drives the same pass from the benchmark's own files through
	// the public seams, recording spans; its digest and counts must equal
	// product's.
	traced(seed int64, sc scale, tr *tracer) (*unit, error)
}

func allWorkloads() []benchWorkload {
	return []benchWorkload{fig15Workload(), table3Workload(), streamWorkload{}, swarmWorkload{}}
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range allWorkloads() {
		if w.name() == name {
			return w, true
		}
	}
	return nil, false
}

// envSteps reads the product's own rollout step counter (rl.CollectEpisode
// bumps it once per episode), so step counts need no wrapper around the
// environment and are available even where the product hides its clients.
func envSteps() int64 {
	return int64(obs.DefaultRegistry().Counter("pfrl_env_steps_total", "").Value())
}
