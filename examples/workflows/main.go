// Workflows: scheduling DAG-structured jobs — the paper's stated future
// work (§6). Stages only become schedulable when their dependencies finish;
// the same PPO agent trains on the workflow environment unchanged, and its
// schedule is compared against heuristics on end-to-end workflow latency
// and stretch (latency / critical path).
//
//	go run ./examples/workflows
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/cloudsim"
	"repro/internal/rl"
	"repro/internal/trace"
	"repro/internal/workflow"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	vms := []cloudsim.VMSpec{{CPU: 4, Mem: 32}, {CPU: 4, Mem: 32}, {CPU: 8, Mem: 64}}
	cfg := cloudsim.DefaultConfig(vms)
	cfg.MaxSteps = 2000

	gen := workflow.DefaultGenConfig(workload.K8S)
	gen.Shape = workflow.ShapeForkJoin
	rng := rand.New(rand.NewSource(1))
	wfs := workflow.ClampToVMs(workflow.Generate(rng, gen, 12), vms)
	total := 0
	for _, w := range wfs {
		total += w.NumStages()
	}
	fmt.Printf("generated %d fork-join workflows (%d stages total) from the %s model\n\n",
		len(wfs), total, gen.Dataset)

	env, err := workflow.NewEnv(cfg, wfs)
	if err != nil {
		log.Fatal(err)
	}

	// Train PPO on the DAG environment.
	rlCfg := rl.DefaultConfig(env.StateDim(), env.NumActions())
	rlCfg.ActorLR, rlCfg.CriticLR = 1e-3, 1e-3
	agent := rl.NewPPO(rlCfg, rand.New(rand.NewSource(2)))
	fmt.Println("training PPO for 25 episodes on the workflow environment...")
	for ep := 0; ep < 25; ep++ {
		env.Reset(wfs)
		var buf rl.Buffer
		totalReward := rl.CollectEpisode(env, agent, &buf)
		agent.Update(&buf)
		if (ep+1)%5 == 0 {
			fmt.Printf("  episode %2d: total reward %.1f\n", ep+1, totalReward)
		}
	}

	// Compare schedules: every scheduler is a cloudsim.Policy, evaluated on
	// a fresh environment over the same workflows.
	fmt.Println("\nworkflow-level results:")
	t := trace.NewTable("scheduler", "workflows done", "mean latency", "mean stretch", "stage makespan")
	for _, p := range []cloudsim.Policy{
		cloudsim.Greedy("PPO (trained)", agent.GreedyAction),
		cloudsim.FirstFit{},
		cloudsim.BestFit{},
	} {
		e, err := workflow.NewEnv(cfg, wfs)
		if err != nil {
			log.Fatal(err)
		}
		// A policy reads the simulator under the DAG gating; its action is
		// stepped through the gating environment, never past it.
		records, metrics := workflow.EvaluateWorkflows(e,
			func([]float64, []bool) int { return p.SelectAction(e.Inner()) })
		lat, str := 0.0, 0.0
		for _, rec := range records {
			lat += float64(rec.Response())
			str += rec.Stretch()
		}
		n := float64(len(records))
		if n == 0 {
			n = 1
		}
		t.AddRow(p.Name(), len(records), lat/n, str/n, metrics.Makespan)
	}
	fmt.Print(t.String())
	fmt.Println("\nstretch 1.0 = the workflow ran at its critical-path optimum;")
	fmt.Println("higher means queueing or dependency serialization overhead.")
}
