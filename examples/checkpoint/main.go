// Checkpoint: train a scheduler, save it to disk, reload it in a fresh
// process state, and verify the reloaded policy schedules identically —
// the deploy/rollback workflow of a production scheduler.
//
//	go run ./examples/checkpoint
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/cloudsim"
	"repro/internal/rl"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	vms := []cloudsim.VMSpec{{CPU: 4, Mem: 32}, {CPU: 8, Mem: 64}}
	cfg := cloudsim.DefaultConfig(vms)
	cfg.MaxSteps = 300
	rng := rand.New(rand.NewSource(1))
	tasks := cloudsim.ClampTasks(workload.SampleDataset(workload.KVM2019, rng, 50), vms)
	train, test := workload.Split(tasks, 0.6)

	env, err := cloudsim.NewEnv(cfg, train)
	if err != nil {
		log.Fatal(err)
	}
	rlCfg := rl.DefaultConfig(env.StateDim(), env.NumActions())
	rlCfg.ActorLR, rlCfg.CriticLR = 1e-3, 1e-3
	agent := rl.NewDualCriticPPO(rlCfg, rand.New(rand.NewSource(2)))

	fmt.Println("training a dual-critic agent for 15 episodes...")
	for ep := 0; ep < 15; ep++ {
		env.Reset(train)
		var buf rl.Buffer
		rl.CollectEpisode(env, agent, &buf)
		agent.Update(&buf)
	}

	dir, err := os.MkdirTemp("", "pfrl-checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "scheduler.json")
	if err := rl.SaveAgentFile(path, agent); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved checkpoint: %s (%d bytes, alpha=%.3f)\n", path, info.Size(), agent.Alpha)

	reloaded, err := rl.LoadAgentFile(path, rand.New(rand.NewSource(3)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded agent: alpha=%.3f\n", reloaded.Alpha)

	evalWith := func(a *rl.PPO) cloudsim.Metrics {
		m, err := cloudsim.Evaluate(cfg, test, cloudsim.Greedy("scheduler", a.GreedyAction))
		if err != nil {
			log.Fatal(err)
		}
		return m
	}
	m1 := evalWith(agent)
	m2 := evalWith(reloaded)
	fmt.Printf("\noriginal : response %.2f makespan %d util %.3f\n", m1.AvgResponse, m1.Makespan, m1.AvgUtil)
	fmt.Printf("reloaded : response %.2f makespan %d util %.3f\n", m2.AvgResponse, m2.Makespan, m2.AvgUtil)
	if m1 == m2 {
		fmt.Println("\n✓ reloaded scheduler is behaviourally identical")
	} else {
		fmt.Println("\n✗ schedules diverged — checkpoint round trip is broken")
		os.Exit(1)
	}
}
