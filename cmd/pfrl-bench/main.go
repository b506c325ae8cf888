// Command pfrl-bench regenerates the paper's experiments by id. Each
// experiment prints the same rows/series the corresponding figure or table
// reports (at a configurable, laptop-friendly scale; see EXPERIMENTS.md for
// scale notes and paper-vs-measured comparisons).
//
// Usage:
//
//	pfrl-bench -exp fig15                 # convergence of all four algorithms
//	pfrl-bench -exp table4 -seed 3        # Wilcoxon p-values
//	pfrl-bench -exp all                   # the full suite
//
// Experiments: fig7 fig8 fig9 fig10 fig11 fig15 fig16 table4 fig20 fig21
// ablation (fig11 also prints figs 12–13; fig16 also prints figs 17–19).
// The extra "spec" experiment runs one episode of a declarative workload
// spec. This is the only harness that produces a figure, ablation or
// extension number; performance is measured by `go run ./benchmark` (see
// benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/attn"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

type benchConfig struct {
	seed         int64
	scale        int
	tasks        int
	episodes     int
	comm         int
	smooth       int
	csvDir       string
	workloadSpec string
	// runs holds the invocation's training runs, each trained once, by train.
	runs map[trainKey]*core.TrainResult
}

// trainKey names one training run of an invocation: the client table (2 or
// 3), the algorithm and the communication frequency; the flags fix the rest.
type trainKey struct {
	table int
	alg   core.Algorithm
	comm  int
}

// expIDs is the -exp usage string; run dispatches every id in it but "all".
const expIDs = "fig7 fig8 fig9 fig10 fig11 fig15 fig16 table4 fig20 fig21 ablation spec all"

// expand resolves -exp all to the full figure suite (fig16 prints Figures
// 16-19 and Table 4 in one pass); any other id runs alone.
func expand(exp string) []string {
	if exp == "all" {
		return []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig15", "fig16", "fig20", "fig21", "ablation"}
	}
	return []string{exp}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pfrl-bench: ")
	var (
		exp          = flag.String("exp", "", "experiment id ("+expIDs+")")
		seed         = flag.Int64("seed", 1, "experiment seed")
		scale        = flag.Int("scale", 4, "VM capacity divisor (1 = paper scale)")
		tasks        = flag.Int("tasks", 100, "tasks per client (paper: 3500)")
		episodes     = flag.Int("episodes", 40, "episodes per client (paper: 300-500)")
		comm         = flag.Int("comm", 5, "communication frequency (paper: 15-25)")
		smooth       = flag.Int("smooth", 5, "moving-average window for printed curves")
		csvDir       = flag.String("csv", "", "also write raw curve series as CSV files into this directory")
		events       = flag.String("events", "", "append JSONL training/federation events to this file (empty = disabled)")
		workloadSpec = flag.String("workload-spec", "", "declarative workload spec JSON for -exp spec")
	)
	flag.Parse()
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		sink := obs.NewJSONL(f)
		obs.SetSink(sink)
		defer func() {
			if err := sink.Err(); err != nil {
				log.Printf("events: %v", err)
			}
		}()
	}
	bc := benchConfig{seed: *seed, scale: *scale, tasks: *tasks, episodes: *episodes, comm: *comm, smooth: *smooth, csvDir: *csvDir, workloadSpec: *workloadSpec,
		runs: map[trainKey]*core.TrainResult{}}
	if bc.csvDir != "" {
		if err := os.MkdirAll(bc.csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	for _, id := range expand(*exp) {
		fmt.Printf("==== %s ====\n", id)
		if err := run(id, bc); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Println()
	}
}

func (bc benchConfig) experiment(specs []core.ClientSpec) core.ExperimentConfig {
	cfg := core.DefaultExperiment(bc.seed)
	cfg.Specs = core.ScaleSpecs(specs, bc.scale)
	cfg.TasksPerClient = bc.tasks
	cfg.Episodes = bc.episodes
	cfg.CommEvery = bc.comm
	cfg.EpisodeStepCap = 5 * bc.tasks
	return cfg
}

// train returns the run of alg on client table 2 or 3 at communication
// frequency comm, training it the first time it is asked for.
func (bc benchConfig) train(table int, alg core.Algorithm, comm int) (*core.TrainResult, error) {
	key := trainKey{table, alg, comm}
	if r := bc.runs[key]; r != nil {
		return r, nil
	}
	specs := core.Table2Specs()
	if table == 3 {
		specs = core.Table3Specs()
	}
	bc.comm = comm
	r, err := core.Train(alg, bc.experiment(specs))
	if err != nil {
		return nil, fmt.Errorf("%v: %w", alg, err)
	}
	bc.runs[key] = r
	return r, nil
}

// convergence returns the mean reward curve of each of algs on client table
// 2 or 3 at -comm, keyed by the algorithm's name.
func (bc benchConfig) convergence(table int, algs []core.Algorithm) (map[string][]float64, error) {
	curves := make(map[string][]float64, len(algs))
	for _, alg := range algs {
		r, err := bc.train(table, alg, bc.comm)
		if err != nil {
			return nil, err
		}
		curves[alg.String()] = r.MeanCurve
	}
	return curves, nil
}

func run(id string, bc benchConfig) error {
	switch strings.ToLower(id) {
	case "fig7":
		return runFig7(bc)
	case "fig8":
		return runFig8(bc)
	case "fig9":
		return runFig9(bc)
	case "fig10":
		return runFig10(bc)
	case "fig11", "fig12", "fig13":
		return runFig11to13(bc)
	case "fig15":
		return runFig15(bc)
	case "fig16", "fig17", "fig18", "fig19", "table4":
		return runHybridAndTable4(bc)
	case "fig20":
		return runFig20(bc)
	case "fig21":
		return runFig21(bc)
	case "ablation":
		return runAblation(bc)
	case "spec":
		return runSpecEpisode(bc)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
}

func printCurves(smooth int, names []string, curves map[string][]float64) {
	headers := append([]string{"episode"}, names...)
	t := trace.NewTable(headers...)
	n := 0
	smoothed := map[string][]float64{}
	for _, name := range names {
		smoothed[name] = stats.MovingAverage(curves[name], smooth)
		if len(curves[name]) > n {
			n = len(curves[name])
		}
	}
	stride := n / 20
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < n; i += stride {
		row := []interface{}{i + 1}
		for _, name := range names {
			if i < len(smoothed[name]) {
				row = append(row, smoothed[name][i])
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	fmt.Print(t.String())
}

// writeCSV dumps raw (unsmoothed) curve series for plotting when -csv is
// set; errors are fatal (a broken artifact is worse than no artifact).
func (bc benchConfig) writeCSV(name string, curves map[string][]float64) {
	if bc.csvDir == "" {
		return
	}
	var series []trace.Series
	keys := make([]string, 0, len(curves))
	for k := range curves {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		series = append(series, trace.NewSeries(k, curves[k]))
	}
	path := filepath.Join(bc.csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteCSV(f, series...); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(wrote %s)\n", path)
}

func runFig7(bc benchConfig) error {
	fmt.Println("Figure 7: average response time — iso vs heter training (§3.1)")
	cfg := bc.experiment(core.Table2Specs())
	res, err := core.RunIsoHeter(cfg)
	if err != nil {
		return err
	}
	t := trace.NewTable("client", "iso->iso", "iso->heter", "heter->iso", "heter->heter")
	for i, name := range res.Clients {
		t.AddRow(name, res.IsoTrainIsoTest[i], res.IsoTrainHeterTest[i],
			res.HeterTrainIsoTest[i], res.HeterTrainHeterTest[i])
	}
	fmt.Print(t.String())
	fmt.Printf("means: iso-trained %.2f / heter-trained %.2f (paper: heter-trained is lower)\n",
		(stats.Mean(res.IsoTrainIsoTest)+stats.Mean(res.IsoTrainHeterTest))/2,
		(stats.Mean(res.HeterTrainIsoTest)+stats.Mean(res.HeterTrainHeterTest))/2)
	return nil
}

func runFig8(bc benchConfig) error {
	fmt.Println("Figure 8: FedAvg vs independent PPO convergence (§3.2)")
	curves, err := bc.convergence(2, []core.Algorithm{core.AlgFedAvg, core.AlgPPO})
	if err != nil {
		return err
	}
	printCurves(bc.smooth, []string{"PPO", "FedAvg"}, curves)
	bc.writeCSV("fig8", curves)
	fmt.Printf("final (smoothed tail mean): PPO %.1f, FedAvg %.1f (paper: FedAvg converges slower)\n",
		tailMean(curves["PPO"]), tailMean(curves["FedAvg"]))
	return nil
}

func runFig9(bc benchConfig) error {
	fmt.Println("Figure 9: critic loss before/after FedAvg aggregation (§3.2)")
	r, err := bc.train(2, core.AlgFedAvg, bc.comm)
	if err != nil {
		return err
	}
	pre, post := core.CriticLossSeries(r)
	t := trace.NewTable("round", "local critic loss", "aggregated critic loss")
	for i := range pre {
		t.AddRow(i+1, pre[i], post[i])
	}
	fmt.Print(t.String())
	fmt.Printf("means: pre %.4g, post %.4g (paper: aggregated incurs the higher loss)\n",
		stats.Mean(pre), stats.Mean(post))
	return nil
}

func runFig10(bc benchConfig) error {
	fmt.Println("Figure 10: focusing on similar clients accelerates convergence (§3.3)")
	cfg := bc.experiment(core.Table2Specs())
	res, err := core.RunWeightConfigs(cfg)
	if err != nil {
		return err
	}
	names := []string{"Fed-Diff", "Fed-Diff-weight", "Fed-Same2", "Fed-Same2-weight"}
	printCurves(bc.smooth, names, res)
	bc.writeCSV("fig10", res)
	// The paper's claim is about convergence SPEED, so compare the mean
	// reward over the climb phase (first 2/3 of training), not the tail.
	climb := func(c []float64) float64 {
		n := 2 * len(c) / 3
		if n < 1 {
			n = len(c)
		}
		return stats.Mean(c[:n])
	}
	fmt.Printf("climb-phase mean: Same2-weight %.1f vs Same2 %.1f; Diff-weight %.1f vs Diff %.1f\n",
		climb(res["Fed-Same2-weight"]), climb(res["Fed-Same2"]),
		climb(res["Fed-Diff-weight"]), climb(res["Fed-Diff"]))
	return nil
}

func runFig11to13(bc benchConfig) error {
	fmt.Println("Figures 11-13: weight heatmaps — attention vs KL vs cosine (§3.3)")
	cfg := bc.experiment(core.Table2Specs())
	res, err := core.RunWeightHeatmaps(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Figure 11 — multi-head attention weights:")
	if err := trace.Heatmap(os.Stdout, res.Labels, res.Attention); err != nil {
		return err
	}
	fmt.Println("\nFigure 12 — KL-divergence weights:")
	if err := trace.Heatmap(os.Stdout, res.Labels, res.KL); err != nil {
		return err
	}
	fmt.Println("\nFigure 13 — cosine-similarity weights:")
	if err := trace.Heatmap(os.Stdout, res.Labels, res.Cosine); err != nil {
		return err
	}
	// Clients 0 and 1 share one environment: the paper's claim is that only
	// attention concentrates weight on that pair.
	focus := func(name string, w [][]float64) {
		fmt.Printf("focus %-10s %s->%s weight is %.2fx the mean off-diagonal\n",
			name, res.Labels[0], res.Labels[1], attn.Focus(w, 0, 1))
	}
	focus("attention:", res.Attention)
	focus("KL:", res.KL)
	focus("cosine:", res.Cosine)
	return nil
}

func runFig15(bc benchConfig) error {
	fmt.Println("Figure 15: convergence of PFRL-DM / MFPO / FedAvg / PPO (§5.2)")
	curves, err := bc.convergence(3, core.AllAlgorithms())
	if err != nil {
		return err
	}
	names := []string{"PFRL-DM", "MFPO", "FedAvg", "PPO"}
	printCurves(bc.smooth, names, curves)
	bc.writeCSV("fig15", curves)
	t := trace.NewTable("algorithm", "final reward (tail mean)")
	for _, n := range names {
		t.AddRow(n, tailMean(curves[n]))
	}
	fmt.Print(t.String())
	return nil
}

func runHybridAndTable4(bc benchConfig) error {
	fmt.Println("Figures 16-19 + Table 4: hybrid-workload generalization (§5.3)")
	fmt.Println("(completed = tasks scheduled/offered over all clients; incomplete clients left tasks")
	fmt.Println("unscheduled at the evaluation horizon, and response/makespan cover scheduled tasks only)")
	cfg := bc.experiment(core.Table3Specs())
	evals := map[core.Algorithm]*core.HybridEval{}
	// A table row: one scheduler's evaluation and its coverage — tasks
	// completed over tasks offered across clients, and how many clients it
	// left incomplete. The means only compare schedulers at full coverage.
	type row struct {
		name                  string
		eval                  *core.HybridEval
		completed, incomplete string
	}
	var rows []row
	addRow := func(name string, e *core.HybridEval) {
		done, total, short := 0, 0, 0
		for i := range e.Total {
			done += e.Completed[i]
			total += e.Total[i]
			if e.Completed[i] < e.Total[i] {
				short++
			}
		}
		rows = append(rows, row{name, e, fmt.Sprintf("%d/%d", done, total), fmt.Sprintf("%d/%d", short, len(e.Total))})
	}
	for _, alg := range core.AllAlgorithms() {
		r, err := bc.train(3, alg, bc.comm)
		if err != nil {
			return err
		}
		e, err := core.EvalHybrid(r, cfg, 0.2, nil)
		if err != nil {
			return err
		}
		evals[alg] = e
		addRow(alg.String(), e)
	}
	// The floor any learned policy must beat: the heuristics on the same
	// hybrid test sets and environments, through the same evaluation.
	for _, p := range []cloudsim.Policy{cloudsim.FirstFit{}, cloudsim.BestFit{}} {
		e, err := core.EvalHybrid(bc.runs[trainKey{3, core.AlgPFRLDM, bc.comm}], cfg, 0.2, p)
		if err != nil {
			return err
		}
		addRow(p.Name(), e)
	}
	metrics := []struct {
		fig  string
		name string
		get  func(*core.HybridEval) []float64
	}{
		{"Figure 16", "avg response time", func(e *core.HybridEval) []float64 { return e.AvgResponse }},
		{"Figure 17", "avg makespan", func(e *core.HybridEval) []float64 { return e.Makespan }},
		{"Figure 18", "avg resource utilization", func(e *core.HybridEval) []float64 { return e.AvgUtil }},
		{"Figure 19", "avg load balancing", func(e *core.HybridEval) []float64 { return e.AvgLoadBal }},
	}
	for _, m := range metrics {
		fmt.Printf("\n%s — %s (across-client mean | p50 | p95):\n", m.fig, m.name)
		t := trace.NewTable("algorithm", "mean", "p50", "p95", "completed", "incomplete clients")
		for _, r := range rows {
			v := m.get(r.eval)
			t.AddRow(r.name, stats.Mean(v), stats.Percentile(v, 0.5), stats.Percentile(v, 0.95), r.completed, r.incomplete)
		}
		fmt.Print(t.String())
	}
	tbl, err := core.BuildWilcoxonTable(evals)
	if err != nil {
		return err
	}
	fmt.Println("\nTable 4 — pair-wise Wilcoxon signed-rank p-values (PFRL-DM vs ...):")
	t := trace.NewTable(append([]string{"Metric"}, tbl.Algorithms...)...)
	for mi, metric := range tbl.Metrics {
		row := []interface{}{metric}
		for ai := range tbl.Algorithms {
			row = append(row, fmt.Sprintf("%.3g", tbl.P[mi][ai]))
		}
		t.AddRow(row...)
	}
	fmt.Print(t.String())
	return nil
}

func runFig20(bc benchConfig) error {
	fmt.Println("Figure 20: a new agent joins the federation (§5.3)")
	cfg := bc.experiment(core.Table3Specs())
	res, err := core.RunNewAgent(cfg, bc.episodes, bc.episodes)
	if err != nil {
		return err
	}
	joinCurves := map[string][]float64{
		"PFRL-DM join": res.Joined,
		"fresh PPO":    res.Fresh,
	}
	printCurves(bc.smooth, []string{"PFRL-DM join", "fresh PPO"}, joinCurves)
	bc.writeCSV("fig20", joinCurves)
	fmt.Printf("final: joined %.1f vs fresh %.1f (paper: the joined agent converges faster)\n",
		tailMean(res.Joined), tailMean(res.Fresh))
	return nil
}

func runFig21(bc benchConfig) error {
	fmt.Println("Figure 21: communication-frequency sweep (§5.4)")
	curves := map[string][]float64{}
	var names []string
	for _, f := range []int{2, 5, 10, 20} {
		r, err := bc.train(3, core.AlgPFRLDM, f)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("comm=%d", f)
		names = append(names, name)
		curves[name] = r.MeanCurve
	}
	printCurves(bc.smooth, names, curves)
	bc.writeCSV("fig21", curves)
	return nil
}

func runAblation(bc benchConfig) error {
	fmt.Println("Ablations: dual-critic, attention aggregation, adaptive alpha")
	cfg := bc.experiment(core.Table3Specs())
	// The unmodified variant is Train(AlgPFRLDM): Figure 15's run.
	full, err := bc.train(3, core.AlgPFRLDM, bc.comm)
	if err != nil {
		return err
	}
	t := trace.NewTable("variant", "final reward (tail mean)")
	t.AddRow(string(core.AblationFull), tailMean(full.MeanCurve))
	for _, v := range []core.AblationVariant{core.AblationNoDualCritic, core.AblationNoAttention, core.AblationFixedAlpha} {
		curve, err := core.RunAblation(cfg, v, 0)
		if err != nil {
			return err
		}
		t.AddRow(string(v), tailMean(curve))
	}
	// Attention head count of the full variant. PFRL-DM's aggregator
	// defaults to 4 heads over the same seed, so the heads=4 row is the
	// pfrl-dm run, printed again rather than trained again.
	curve, err := core.RunAblation(cfg, core.AblationFull, 1)
	if err != nil {
		return err
	}
	t.AddRow("heads=1", tailMean(curve))
	t.AddRow("heads=4", tailMean(full.MeanCurve))
	fmt.Print(t.String())
	return nil
}

// tailMean averages the last quarter of a curve (a stable "final
// performance" readout for noisy RL curves).
func tailMean(curve []float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	n := len(curve) / 4
	if n < 1 {
		n = 1
	}
	return stats.Mean(curve[len(curve)-n:])
}
