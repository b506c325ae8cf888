package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/rl"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The scale experiment sweeps the simulator across cluster sizes — 20, 500,
// and 5000 VMs — with the fixed-width top-k observation (TopK=8, 10
// utilization buckets), streaming Google-trace arrivals, and reports
// per-decision cost for the heuristic portfolio and an (untrained) PPO
// policy. A capped legacy full-scan run at the same cluster size provides
// the naive baseline the ranked engine's O(k)-per-step claim is measured
// against. Results land in BENCH_ClusterScale.json.
const (
	scaleTopK        = 8
	scaleUtilBuckets = 10
	scaleTaskCap     = 100_000 // tasks per episode, capped (20 per VM below that)
	scaleNaiveSteps  = 5_000   // decision cap for the O(N) baseline run
	scalePolicySteps = 20_000  // decision cap for the learned-policy run
)

func scaleSweep() []int { return []int{20, 500, 5000} }

// scaleCluster extends the Table-3 capacity mix (8:6:4:2 of small to large
// VMs per 20) to n machines by repeating the 20-VM block.
func scaleCluster(n int) []cloudsim.VMSpec {
	var block []cloudsim.VMSpec
	add := func(count, cpu int, mem float64) {
		for i := 0; i < count; i++ {
			block = append(block, cloudsim.VMSpec{CPU: cpu, Mem: mem})
		}
	}
	add(8, 8, 64)
	add(6, 16, 128)
	add(4, 32, 256)
	add(2, 64, 512)
	specs := make([]cloudsim.VMSpec, n)
	for i := range specs {
		specs[i] = block[i%len(block)]
	}
	return specs
}

func scaleConfig(specs []cloudsim.VMSpec) cloudsim.Config {
	cfg := cloudsim.DefaultConfig(specs)
	cfg.TopK = scaleTopK
	cfg.UtilBuckets = scaleUtilBuckets
	return cfg
}

// scaleSource feeds the sweep's streaming arrivals: the Google builtin by
// default, or the -workload-spec declarative spec when one is given.
func (bc benchConfig) scaleSource(seed int64, n int, specs []cloudsim.VMSpec) (cloudsim.TaskSource, error) {
	if bc.workloadSpec != "" {
		comp, err := loadCompiledSpec(bc.workloadSpec)
		if err != nil {
			return nil, err
		}
		return cloudsim.NewSpecSource(comp, seed, n, specs), nil
	}
	return cloudsim.NewSamplerSource(workload.Lookup(workload.Google), seed, n, specs), nil
}

// scalePolicyEntry is one heuristic's full-episode row in the artifact.
type scalePolicyEntry struct {
	Policy      string  `json:"policy"`
	Steps       int     `json:"steps"`
	NsPerStep   float64 `json:"ns_per_step"`
	Completed   int     `json:"completed_tasks"`
	AvgResponse float64 `json:"avg_response"`
	AvgUtil     float64 `json:"avg_utilization"`
}

// scaleEntry is one cluster size's sweep row.
type scaleEntry struct {
	VMs   int `json:"vms"`
	Tasks int `json:"tasks"`

	Policies []scalePolicyEntry `json:"policies"`

	// Untrained PPO policy over the ranked observation, capped at
	// PolicySteps decisions (inference cost, not scheduling quality).
	PolicySteps     int     `json:"learned_policy_steps"`
	PolicyNsPerStep float64 `json:"learned_policy_ns_per_step"`

	// Legacy engine (TopK=0) with a first-fit full scan at the same cluster
	// size, capped at scaleNaiveSteps decisions.
	NaiveNsPerStep float64 `json:"naive_full_scan_ns_per_step"`
	// First-fit per-step speedup of the ranked engine over the naive scan.
	SpeedupVsNaive float64 `json:"first_fit_speedup_vs_naive"`
}

// scaleResult is the schema of the BENCH_ClusterScale.json artifact.
type scaleResult struct {
	Name        string       `json:"name"`
	TopK        int          `json:"top_k"`
	UtilBuckets int          `json:"util_buckets"`
	StateDim    int          `json:"state_dim"`
	NumActions  int          `json:"num_actions"`
	Entries     []scaleEntry `json:"entries"`
}

func scalePolicies(seed int64) []cloudsim.Policy {
	return []cloudsim.Policy{
		cloudsim.FirstFit{},
		cloudsim.BestFit{},
		cloudsim.WorstFit{},
		&cloudsim.RoundRobin{},
		cloudsim.RandomFit{Rng: rand.New(rand.NewSource(seed))},
	}
}

// timedEpisode drives env with policy until the episode ends (or limit
// decisions, 0 = unlimited), drains, and returns the step count and
// wall-clock per decision.
func timedEpisode(env *cloudsim.Env, policy cloudsim.Policy, limit int) (int, float64) {
	steps := 0
	start := time.Now()
	for !env.Done() && (limit == 0 || steps < limit) {
		env.Step(policy.SelectAction(env))
		steps++
	}
	env.Drain()
	elapsed := time.Since(start)
	if steps == 0 {
		return 0, 0
	}
	return steps, float64(elapsed.Nanoseconds()) / float64(steps)
}

func runClusterScale(bc benchConfig) error {
	specsProbe := scaleCluster(20)
	cfgProbe := scaleConfig(specsProbe)
	res := scaleResult{
		Name:        "ClusterScale",
		TopK:        scaleTopK,
		UtilBuckets: scaleUtilBuckets,
		StateDim:    cloudsim.StateDim(cfgProbe),
		NumActions:  cloudsim.NumActions(cfgProbe),
	}
	fmt.Printf("Cluster scale: streaming episodes, top-%d observation (%d features, %d actions at every size)\n",
		scaleTopK, res.StateDim, res.NumActions)

	t := trace.NewTable("vms", "tasks", "policy", "steps", "ns/step", "completed", "avg resp")
	for _, n := range scaleSweep() {
		if bc.scaleCap > 0 && n > bc.scaleCap {
			fmt.Printf("(skipping %d VMs: -scale-cap %d)\n", n, bc.scaleCap)
			continue
		}
		specs := scaleCluster(n)
		cfg := scaleConfig(specs)
		nTasks := 20 * n
		if nTasks > scaleTaskCap {
			nTasks = scaleTaskCap
		}
		entry := scaleEntry{VMs: n, Tasks: nTasks}

		// Heuristic portfolio: full streamed episodes.
		for _, p := range scalePolicies(bc.seed) {
			src, err := bc.scaleSource(bc.seed, nTasks, specs)
			if err != nil {
				return err
			}
			env, err := cloudsim.NewEnvSource(cfg, src)
			if err != nil {
				return err
			}
			steps, nsPerStep := timedEpisode(env, p, 0)
			m := env.Metrics()
			pe := scalePolicyEntry{
				Policy:      p.Name(),
				Steps:       steps,
				NsPerStep:   nsPerStep,
				Completed:   m.Completed,
				AvgResponse: m.AvgResponse,
				AvgUtil:     m.AvgUtil,
			}
			entry.Policies = append(entry.Policies, pe)
			t.AddRow(n, nTasks, pe.Policy, pe.Steps, pe.NsPerStep, pe.Completed, pe.AvgResponse)
		}

		// Learned-policy inference cost: untrained PPO on the ranked
		// observation, capped so the row measures per-decision latency.
		policySrc, err := bc.scaleSource(bc.seed, nTasks, specs)
		if err != nil {
			return err
		}
		env, err := cloudsim.NewEnvSource(cfg, policySrc)
		if err != nil {
			return err
		}
		agent := rl.NewPPO(rl.DefaultConfig(res.StateDim, res.NumActions), rand.New(rand.NewSource(bc.seed)))
		buf := make([]float64, env.StateDim())
		steps := 0
		start := time.Now()
		for !env.Done() && steps < scalePolicySteps {
			buf = env.Observe(buf)
			action, _ := agent.SelectAction(buf)
			env.Step(action)
			steps++
		}
		elapsed := time.Since(start)
		entry.PolicySteps = steps
		if steps > 0 {
			entry.PolicyNsPerStep = float64(elapsed.Nanoseconds()) / float64(steps)
		}
		t.AddRow(n, nTasks, "ppo-untrained", entry.PolicySteps, entry.PolicyNsPerStep, "-", "-")

		// Naive baseline: the legacy engine scans every VM per decision and
		// recomputes O(N) reward terms; capped, since that cost is the point.
		naiveCfg := cloudsim.DefaultConfig(specs)
		naiveTasks := nTasks
		if naiveTasks > 2*scaleNaiveSteps {
			naiveTasks = 2 * scaleNaiveSteps
		}
		naiveSrc, err := bc.scaleSource(bc.seed, naiveTasks, specs)
		if err != nil {
			return err
		}
		naiveEnv, err := cloudsim.NewEnvSource(naiveCfg, naiveSrc)
		if err != nil {
			return err
		}
		_, naiveNs := timedEpisode(naiveEnv, cloudsim.FirstFit{}, scaleNaiveSteps)
		entry.NaiveNsPerStep = naiveNs
		if ff := entry.Policies[0]; ff.NsPerStep > 0 {
			entry.SpeedupVsNaive = naiveNs / ff.NsPerStep
		}
		t.AddRow(n, naiveTasks, "naive-full-scan", "-", entry.NaiveNsPerStep,
			"-", fmt.Sprintf("%.1fx slower", entry.SpeedupVsNaive))

		res.Entries = append(res.Entries, entry)
	}
	fmt.Print(t.String())
	bc.writeJSON("BENCH_ClusterScale.json", res)
	return nil
}

// writeJSON marshals v into -benchdir under the given filename; errors are
// fatal like writeCSV's.
func (bc benchConfig) writeJSON(filename string, v any) {
	if bc.benchDir == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(bc.benchDir, filename)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(wrote %s)\n", path)
}
