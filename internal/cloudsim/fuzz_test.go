package cloudsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// FuzzStreamSource feeds arbitrary bytes through the streaming TaskSource
// path: decoded task scripts carry out-of-order arrivals, zero/negative
// durations, non-positive and over-capacity requests. The engine must shut
// the source down deterministically — SourceErr at the first violation, with
// exactly the valid prefix pulled — and never corrupt resource accounting
// (checked with the invariant harness after every step, under seeded random
// actions).
func FuzzStreamSource(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{1, 1, 8, 2, 0, 1, 2, 16, 3, 0})   // two valid tasks
	f.Add(int64(3), []byte{1, 1, 8, 0, 0})                   // zero duration
	f.Add(int64(4), []byte{5, 1, 8, 2, 0, 0x80, 1, 8, 2, 0}) // arrival regression
	f.Add(int64(5), []byte{1, 0, 8, 2, 0})                   // zero CPU
	f.Add(int64(6), []byte{1, 1, 0, 2, 0})                   // zero memory
	f.Add(int64(7), []byte{1, 1, 255, 2, 0})                 // infinite memory
	f.Add(int64(8), []byte{1, 100, 8, 2, 0})                 // over-capacity CPU

	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		specs := []VMSpec{{CPU: 4, Mem: 8}, {CPU: 2, Mem: 2}, {CPU: 8, Mem: 16}}
		cfg := DefaultConfig(specs)
		cfg.TopK = 2
		cfg.UtilBuckets = 3
		cfg.MaxSteps = 300

		// Decode a task script: 5 bytes per task — signed arrival delta,
		// signed CPU, memory eighth-GiBs (255 = +Inf), signed duration,
		// spare. Any field can be invalid; the first invalid pull must shut
		// the source down via SourceErr.
		var script []workload.Task
		arr := 0
		for i := 0; i+5 <= len(data) && len(script) < 64; i += 5 {
			arr += int(int8(data[i]))
			mem := float64(data[i+2]) / 8
			if data[i+2] == 255 {
				mem = math.Inf(1)
			}
			script = append(script, workload.Task{
				ID:       len(script),
				Arrival:  arr,
				CPU:      int(int8(data[i+1])),
				Mem:      mem,
				Duration: int(int8(data[i+3])),
			})
		}
		env, err := NewEnvSource(cfg, &scriptedSource{tasks: script})
		if err != nil {
			t.Fatalf("NewEnvSource: %v", err)
		}
		rng := rand.New(rand.NewSource(seed))
		for !checkDone(t, env) {
			env.Step(rng.Intn(env.NumActions()))
			checkStepInvariants(t, env)
		}
		env.Drain()
		checkStepInvariants(t, env)
		if m := env.Metrics(); m.Total != len(script) {
			t.Fatalf("Metrics.Total %d, script offered %d", m.Total, len(script))
		}

		// Source shutdown is deterministic: an error implies the script's
		// first violation was reached with exactly the valid prefix pulled,
		// and a clean drain implies the script had no violation at all.
		bad := firstViolation(script)
		if serr := env.SourceErr(); serr != nil {
			if bad < 0 {
				t.Fatalf("SourceErr %v on a violation-free script", serr)
			}
			if env.pulled != bad {
				t.Fatalf("pulled %d valid tasks, want the %d before the violation", env.pulled, bad)
			}
		} else if env.srcDone && bad >= 0 {
			t.Fatalf("source drained cleanly past a violation at task %d", bad)
		}
	})
}

// firstViolation returns the index of the first task the environment's
// source validation must reject, or -1.
func firstViolation(script []workload.Task) int {
	last := 0
	for i, t := range script {
		if t.CPU < 1 || !(t.Mem > 0) || math.IsInf(t.Mem, 1) || t.Duration < 1 ||
			t.Arrival < 0 || t.Arrival < last {
			return i
		}
		last = t.Arrival
	}
	return -1
}
