package main

import (
	"fmt"

	"repro/internal/cloudsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Default per-class wait targets (slots) for the spec episode's violation
// accounting: best-effort untracked, standard 8, critical 4.
var specWaitTargets = [workload.NumSLOClasses]int{0, 8, 4}

// referenceCluster is the 20-VM Table-3 capacity mix: 8:6:4:2 of small to
// large machines.
func referenceCluster() []cloudsim.VMSpec {
	var specs []cloudsim.VMSpec
	add := func(count, cpu int, mem float64) {
		for i := 0; i < count; i++ {
			specs = append(specs, cloudsim.VMSpec{CPU: cpu, Mem: mem})
		}
	}
	add(8, 8, 64)
	add(6, 16, 128)
	add(4, 32, 256)
	add(2, 64, 512)
	return specs
}

// runSpecEpisode streams one first-fit episode from the -workload-spec file
// over the 20-VM reference cluster and prints the per-SLO-class wait
// breakdown — the quickest end-to-end look at what a spec generates and how
// its service classes fare under a baseline scheduler.
func runSpecEpisode(bc benchConfig) error {
	if bc.workloadSpec == "" {
		return fmt.Errorf("-exp spec requires -workload-spec <file.json>")
	}
	spec, err := workload.LoadSpec(bc.workloadSpec)
	if err != nil {
		return err
	}
	comp, err := spec.Compile()
	if err != nil {
		return err
	}
	n := 5 * bc.tasks
	specs := referenceCluster()
	cfg := cloudsim.DefaultConfig(specs)
	cfg.Objectives.SLOWaitTarget = specWaitTargets
	env, err := cloudsim.NewEnvSource(cfg, cloudsim.NewSpecSource(comp, bc.seed, n, specs))
	if err != nil {
		return err
	}
	fmt.Printf("Spec episode: %q, %d tasks on %d VMs, first-fit (wait targets: standard %d, critical %d slots)\n",
		comp.Name, n, len(specs), specWaitTargets[workload.SLOStandard], specWaitTargets[workload.SLOCritical])
	m := cloudsim.RunEpisode(env, cloudsim.FirstFit{})
	fmt.Printf("completed %d/%d tasks in %d decisions; avg response %.2f, makespan %d, avg util %.3f\n",
		m.Completed, m.Total, m.Steps, m.AvgResponse, m.Makespan, m.AvgUtil)
	t := trace.NewTable("slo class", "completed", "avg wait", "wait p50", "wait p95", "violations")
	for _, s := range m.PerSLO {
		t.AddRow(s.Class.String(), s.Completed, s.AvgWait, s.WaitP50, s.WaitP95, s.Violations)
	}
	fmt.Print(t.String())
	return nil
}
