// Quickstart: build a cloud scheduling environment from a modelled
// workload, train a PPO scheduler on it, and compare it against classic
// heuristics (first-fit, best-fit, random).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/cloudsim"
	"repro/internal/rl"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// A small private cloud: two mid-size VMs and one large one.
	vms := []cloudsim.VMSpec{
		{CPU: 4, Mem: 32},
		{CPU: 4, Mem: 32},
		{CPU: 8, Mem: 64},
	}

	// 80 tasks drawn from the Google-like trace model (§3: tiny, short,
	// bursty tasks), clamped so everything fits the largest VM.
	rng := rand.New(rand.NewSource(1))
	tasks := cloudsim.ClampTasks(workload.SampleDataset(workload.Google, rng, 80), vms)
	train, test := workload.Split(tasks, 0.6)

	cfg := cloudsim.DefaultConfig(vms)
	cfg.MaxSteps = 400
	env, err := cloudsim.NewEnv(cfg, train)
	if err != nil {
		log.Fatal(err)
	}

	// Train a PPO scheduler (paper hyperparameters, slightly higher LR for
	// this tiny example).
	rlCfg := rl.DefaultConfig(env.StateDim(), env.NumActions())
	rlCfg.ActorLR, rlCfg.CriticLR = 1e-3, 1e-3
	agent := rl.NewPPO(rlCfg, rand.New(rand.NewSource(2)))

	fmt.Println("training PPO for 30 episodes...")
	for ep := 0; ep < 30; ep++ {
		env.Reset(train)
		var buf rl.Buffer
		total := rl.CollectEpisode(env, agent, &buf)
		agent.Update(&buf)
		if (ep+1)%10 == 0 {
			fmt.Printf("  episode %2d: total reward %.1f\n", ep+1, total)
		}
	}

	// Evaluate everyone on the held-out tasks, through the same function.
	// The PPO agent is deployed with the feasibility guard (it never submits
	// a placement the admission check would reject), like any production
	// scheduler.
	fmt.Println("\ngreedy evaluation on held-out tasks:")
	t := trace.NewTable("scheduler", "avg response", "makespan", "utilization", "load balance")
	for _, p := range []cloudsim.Policy{
		cloudsim.Greedy("PPO (trained)", agent.GreedyAction),
		cloudsim.FirstFit{},
		cloudsim.BestFit{},
		cloudsim.WorstFit{},
		cloudsim.RandomFit{Rng: rand.New(rand.NewSource(3))},
	} {
		m, err := cloudsim.Evaluate(cfg, test, p)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(p.Name(), m.AvgResponse, m.Makespan, m.AvgUtil, m.AvgLoadBal)
	}
	fmt.Print(t.String())
}
