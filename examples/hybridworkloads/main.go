// Hybrid workloads: the scenario that motivates the paper — a provider's
// workload mix shifts toward task types it has never seen (a bank suddenly
// running ML jobs, §1). We train all four algorithms on the 10-provider
// federation and evaluate each provider's scheduler on a hybrid test set
// where 80% of tasks come from the other providers' distributions (§5.3,
// Figures 16–19).
//
// The embedded twoclient.json shows the declarative side of hybrid
// workloads: a two-tenant spec (latency-critical interactive traffic plus
// best-effort batch) drives one provider's traffic with SLO-aware reward
// shaping, and a first-fit episode prints the per-class wait breakdown
// before training starts.
//
//	go run ./examples/hybridworkloads
package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"log"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

//go:embed twoclient.json
var twoClientJSON []byte

// specDemo compiles the embedded two-tenant spec, streams a first-fit
// episode from it, and prints how each service class fared.
func specDemo(seed int64) *workload.Spec {
	spec, err := workload.ParseSpec(bytes.NewReader(twoClientJSON))
	if err != nil {
		log.Fatal(err)
	}
	comp, err := spec.Compile()
	if err != nil {
		log.Fatal(err)
	}
	vms := []cloudsim.VMSpec{{CPU: 8, Mem: 32}, {CPU: 8, Mem: 32}, {CPU: 16, Mem: 64}}
	cfg := cloudsim.DefaultConfig(vms)
	cfg.Objectives.SLOWaitTarget = [workload.NumSLOClasses]int{0, 8, 4}
	env, err := cloudsim.NewEnvSource(cfg, cloudsim.NewSpecSource(comp, seed, 300, vms))
	if err != nil {
		log.Fatal(err)
	}
	m := cloudsim.RunEpisode(env, cloudsim.FirstFit{})
	fmt.Printf("spec %q: first-fit over %d tasks on %d VMs (avg response %.1f slots)\n",
		comp.Name, m.Completed, len(vms), m.AvgResponse)
	t := trace.NewTable("slo class", "completed", "avg wait", "wait p95", "violations")
	for _, s := range m.PerSLO {
		t.AddRow(s.Class.String(), s.Completed, s.AvgWait, s.WaitP95, s.Violations)
	}
	fmt.Print(t.String())
	fmt.Println()
	return spec
}

func main() {
	log.SetFlags(0)

	spec := specDemo(11)

	cfg := core.DefaultExperiment(11)
	cfg.TasksPerClient = 80
	cfg.Episodes = 16
	cfg.CommEvery = 4
	cfg.EpisodeStepCap = 400
	// Provider 1 swaps its builtin dataset for the declarative two-tenant
	// mix, and every provider's reward is shaped against the SLO classes.
	cfg.Specs[0].Workload = spec
	cfg.SLOWaitCost = [workload.NumSLOClasses]float64{0, 0.002, 0.01}
	cfg.SLOWaitTarget = [workload.NumSLOClasses]int{0, 8, 4}

	fmt.Printf("training %d algorithms on %d providers (%d episodes each)...\n",
		len(core.AllAlgorithms()), len(cfg.Specs), cfg.Episodes)
	evals := map[core.Algorithm]*core.HybridEval{}
	for _, alg := range core.AllAlgorithms() {
		res, err := core.Train(alg, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if evals[alg], err = core.EvalHybrid(res, cfg, 0.2, nil); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s trained; hybrid mean response %.1f slots\n",
			alg, stats.Mean(evals[alg].AvgResponse))
	}

	fmt.Println("\nper-metric means across providers (hybrid test sets, 20% native / 80% foreign):")
	t := trace.NewTable("algorithm", "response", "makespan", "utilization", "load balance")
	for _, alg := range core.AllAlgorithms() {
		e := evals[alg]
		t.AddRow(alg.String(), stats.Mean(e.AvgResponse), stats.Mean(e.Makespan),
			stats.Mean(e.AvgUtil), stats.Mean(e.AvgLoadBal))
	}
	fmt.Print(t.String())

	tbl, err := core.BuildWilcoxonTable(evals)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTable 4 — Wilcoxon signed-rank p-values (PFRL-DM vs ...):")
	wt := trace.NewTable(append([]string{"metric"}, tbl.Algorithms...)...)
	for mi, metric := range tbl.Metrics {
		row := []interface{}{metric}
		for ai := range tbl.Algorithms {
			row = append(row, fmt.Sprintf("%.3g", tbl.P[mi][ai]))
		}
		wt.AddRow(row...)
	}
	fmt.Print(wt.String())
	fmt.Println("\np < 0.05 means PFRL-DM's advantage over that algorithm is statistically significant.")
}
