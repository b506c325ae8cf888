package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/fed"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// tinyConfig is the smallest configuration that exercises every code path:
// 3 heterogeneous clients, 30 tasks, 4 episodes.
func tinyConfig(seed int64) ExperimentConfig {
	cfg := DefaultExperiment(seed)
	cfg.Specs = ScaleSpecs(Table2Specs(), 4)[:3]
	cfg.TasksPerClient = 30
	cfg.Episodes = 4
	cfg.CommEvery = 2
	cfg.EpisodeStepCap = 150
	cfg.Parallel = false
	return cfg
}

func TestTableSpecs(t *testing.T) {
	t2 := Table2Specs()
	if len(t2) != 4 {
		t.Fatalf("Table 2 has %d clients", len(t2))
	}
	if len(t2[0].VMs) != 5 { // (16,128,4)+(32,256,1)
		t.Fatalf("Table 2 client 1 has %d VMs, want 5", len(t2[0].VMs))
	}
	t3 := Table3Specs()
	if len(t3) != 10 {
		t.Fatalf("Table 3 has %d clients", len(t3))
	}
	if len(t3[0].VMs) != 7 { // 1+4+2
		t.Fatalf("Table 3 client 1 has %d VMs, want 7", len(t3[0].VMs))
	}
	// Every dataset appears exactly once in Table 3.
	seen := map[workload.DatasetID]bool{}
	for _, s := range t3 {
		if seen[s.Dataset] {
			t.Fatalf("dataset %v duplicated", s.Dataset)
		}
		seen[s.Dataset] = true
	}
	if len(seen) != 10 {
		t.Fatal("Table 3 should cover all ten datasets")
	}
}

func TestScaleSpecs(t *testing.T) {
	specs := Table3Specs()
	scaled := ScaleSpecs(specs, 4)
	if scaled[0].VMs[0].CPU != 2 || scaled[0].VMs[0].Mem != 16 {
		t.Fatalf("scaled VM %+v", scaled[0].VMs[0])
	}
	// Original untouched.
	if specs[0].VMs[0].CPU != 8 {
		t.Fatal("ScaleSpecs mutated input")
	}
	// Scale 1 is a deep copy.
	copy1 := ScaleSpecs(specs, 1)
	copy1[0].VMs[0].CPU = 999
	if specs[0].VMs[0].CPU == 999 {
		t.Fatal("scale-1 copy aliases input")
	}
	// Never below minimums.
	tiny := ScaleSpecs([]ClientSpec{{VMs: []cloudsim.VMSpec{{CPU: 2, Mem: 1}}}}, 100)
	if tiny[0].VMs[0].CPU < 1 || tiny[0].VMs[0].Mem < 0.5 {
		t.Fatal("scaling floor violated")
	}
}

func TestCapsUniformAcrossClients(t *testing.T) {
	cfg := tinyConfig(1)
	caps := CapsFor(cfg.Specs)
	dims := map[int]bool{}
	for _, s := range cfg.Specs {
		envCfg := caps.EnvConfig(s)
		if err := envCfg.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		dims[cloudsim.StateDim(envCfg)] = true
	}
	if len(dims) != 1 {
		t.Fatalf("state dims differ across clients: %v", dims)
	}
}

func TestSampleClientData(t *testing.T) {
	cfg := tinyConfig(2)
	data, err := SampleClientData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(cfg.Specs) {
		t.Fatal("wrong client count")
	}
	for _, d := range data {
		if len(d.Train)+len(d.Test) != cfg.TasksPerClient {
			t.Fatalf("%s: %d train + %d test != %d", d.Spec.Name, len(d.Train), len(d.Test), cfg.TasksPerClient)
		}
		for _, task := range append(append([]workload.Task{}, d.Train...), d.Test...) {
			fits := false
			for _, vm := range d.Spec.VMs {
				if task.CPU <= vm.CPU && task.Mem <= vm.Mem {
					fits = true
					break
				}
			}
			if !fits {
				t.Fatalf("%s: task %+v fits no VM", d.Spec.Name, task)
			}
		}
	}
	// Deterministic for a seed.
	again, err := SampleClientData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Train[0] != data[0].Train[0] {
		t.Fatal("sampling not deterministic")
	}
}

func TestTrainAllAlgorithms(t *testing.T) {
	for _, alg := range AllAlgorithms() {
		cfg := tinyConfig(3)
		r, err := Train(alg, cfg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(r.MeanCurve) != cfg.Episodes {
			t.Fatalf("%v: curve length %d, want %d", alg, len(r.MeanCurve), cfg.Episodes)
		}
		if alg == AlgPPO {
			if r.Federation != nil {
				t.Fatal("independent PPO should have no federation")
			}
		} else if r.Federation == nil {
			t.Fatalf("%v: federation missing", alg)
		}
		for _, c := range r.Clients {
			isDual := c.Agent.PublicCritic != nil
			if (alg == AlgPFRLDM) != isDual {
				t.Fatalf("%v: wrong agent kind (dual-critic: %v)", alg, isDual)
			}
		}
	}
}

func TestTrainPFRLDMUsesHalfParticipation(t *testing.T) {
	cfg := tinyConfig(4)
	cfg.Specs = ScaleSpecs(Table2Specs(), 4) // 4 clients -> K=2
	r, err := Train(AlgPFRLDM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Federation.K != 2 {
		t.Fatalf("K=%d, want N/2=2", r.Federation.K)
	}
}

func TestCriticLossSeries(t *testing.T) {
	cfg := tinyConfig(6)
	r, err := Train(AlgFedAvg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, post := CriticLossSeries(r)
	rounds := cfg.Episodes / cfg.CommEvery
	if len(pre) != rounds || len(post) != rounds {
		t.Fatalf("probe lengths %d/%d, want %d", len(pre), len(post), rounds)
	}
	for i := range pre {
		if pre[i] < 0 || post[i] < 0 {
			t.Fatal("negative loss probe")
		}
	}
}

func TestEvalHybridDeterministicTestSets(t *testing.T) {
	cfg := tinyConfig(7)
	r1, err := Train(AlgPPO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := EvalHybrid(r1, cfg, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := EvalHybrid(r1, cfg, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e1.AvgResponse) != len(cfg.Specs) {
		t.Fatal("per-client metrics missing")
	}
	for i := range e1.AvgResponse {
		if e1.AvgResponse[i] != e2.AvgResponse[i] {
			t.Fatal("hybrid evaluation not deterministic")
		}
		if e1.AvgUtil[i] < 0 || e1.AvgUtil[i] > 1 {
			t.Fatalf("utilization out of range: %v", e1.AvgUtil[i])
		}
	}
	// The floor faces the same test sets, and first-fit — which never waits
	// while a VM fits — schedules all of them within the evaluation horizon.
	floor, err := EvalHybrid(r1, cfg, 0.2, cloudsim.FirstFit{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range floor.Total {
		if floor.Total[i] != e1.Total[i] || floor.Completed[i] != floor.Total[i] {
			t.Fatalf("client %d: first-fit completed %d/%d of the agent's %d tasks",
				i, floor.Completed[i], floor.Total[i], e1.Total[i])
		}
	}
}

func TestBuildWilcoxonTable(t *testing.T) {
	mk := func(base float64) *HybridEval {
		e := &HybridEval{}
		for i := 0; i < 10; i++ {
			v := base + float64(i)
			e.AvgResponse = append(e.AvgResponse, v)
			e.Makespan = append(e.Makespan, v*2)
			e.AvgUtil = append(e.AvgUtil, 0.5+base/100)
			e.AvgLoadBal = append(e.AvgLoadBal, 0.1+base/100)
		}
		return e
	}
	evals := map[Algorithm]*HybridEval{
		AlgPFRLDM: mk(0),
		AlgPPO:    mk(5),
		AlgFedAvg: mk(7),
		AlgMFPO:   mk(3),
	}
	tbl, err := BuildWilcoxonTable(evals)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Metrics) != 4 || len(tbl.Algorithms) != 3 {
		t.Fatalf("table shape %dx%d", len(tbl.Metrics), len(tbl.Algorithms))
	}
	// PFRL-DM uniformly better on response -> p = 2/2^10.
	want := 2.0 / 1024.0
	if math.Abs(tbl.P[0][0]-want) > 1e-9 {
		t.Fatalf("p=%v, want %v", tbl.P[0][0], want)
	}
	if _, err := BuildWilcoxonTable(map[Algorithm]*HybridEval{AlgPPO: mk(1)}); err == nil {
		t.Fatal("missing PFRL-DM should error")
	}
}

func TestRunWeightConfigs(t *testing.T) {
	cfg := tinyConfig(8)
	cfg.Specs = ScaleSpecs(Table2Specs(), 4)
	res, err := RunWeightConfigs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Fed-Diff", "Fed-Diff-weight", "Fed-Same2", "Fed-Same2-weight"} {
		if len(res[name]) != cfg.Episodes {
			t.Fatalf("%s curve length %d", name, len(res[name]))
		}
	}
}

func TestRunWeightHeatmaps(t *testing.T) {
	cfg := tinyConfig(9)
	res, err := RunWeightHeatmaps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 4 {
		t.Fatalf("labels %v", res.Labels)
	}
	if res.Labels[1] != res.Labels[0]+"'" {
		t.Fatalf("twin label wrong: %v", res.Labels)
	}
	for _, m := range [][][]float64{res.Attention, res.KL, res.Cosine} {
		if len(m) != 4 {
			t.Fatal("matrix not 4x4")
		}
		for _, row := range m {
			sum := 0.0
			for _, v := range row {
				sum += v
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("row not stochastic: %v", row)
			}
		}
	}
}

func TestRunIsoHeter(t *testing.T) {
	cfg := tinyConfig(13)
	cfg.Episodes = 3
	res, err := RunIsoHeter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(cfg.Specs)
	if len(res.Clients) != n || len(res.IsoTrainIsoTest) != n ||
		len(res.HeterTrainHeterTest) != n {
		t.Fatal("result vectors incomplete")
	}
	for i := 0; i < n; i++ {
		for _, v := range []float64{res.IsoTrainIsoTest[i], res.IsoTrainHeterTest[i], res.HeterTrainIsoTest[i], res.HeterTrainHeterTest[i]} {
			if v <= 0 || math.IsNaN(v) {
				t.Fatalf("degenerate response time %v", v)
			}
		}
	}

	// Figure 7 trains through the one training loop, so -events sees it:
	// one "episode" event per client, training set and episode, and the
	// sink changes no number.
	var events bytes.Buffer
	sink := obs.NewJSONL(&events)
	prev := obs.SetSink(sink)
	instr, err := RunIsoHeter(cfg)
	obs.SetSink(prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(events.String(), `"type":"episode"`), n*2*cfg.Episodes; got != want {
		t.Fatalf("instrumented Figure 7 run emitted %d episode events, want %d", got, want)
	}
	if !reflect.DeepEqual(res, instr) {
		t.Fatalf("event sink moved Figure 7:\n%+v\n%+v", res, instr)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if AlgPFRLDM.String() != "PFRL-DM" || AlgPPO.String() != "PPO" ||
		AlgFedAvg.String() != "FedAvg" || AlgMFPO.String() != "MFPO" {
		t.Fatal("algorithm names wrong")
	}
	if len(AllAlgorithms()) != 4 {
		t.Fatal("expected 4 algorithms")
	}
}

func TestVMsHelperPanicsOnBadTriples(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	vms(1, 2)
}

func TestFederationClientsShareGlobalAfterTraining(t *testing.T) {
	cfg := tinyConfig(14)
	r, err := Train(AlgFedAvg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After the last aggregation round every FedAvg client holds the same
	// model modulo the trailing local segment; with CommEvery dividing
	// Episodes there is no trailing segment... here 4 % 2 == 0, so the last
	// action was a download: all clients identical.
	tr := fed.ActorCriticTransport{}
	ref, err := tr.Upload(r.Clients[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Clients[1:] {
		got, err := tr.Upload(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatal("FedAvg clients diverged after final aggregation")
			}
		}
	}
}

// TestTrainReportsPoolTraffic asserts the pooled fast path is actually live
// end-to-end: a full (tiny) training run must route its tensor traffic
// through the shared pool and recycle most of it.
func TestTrainReportsPoolTraffic(t *testing.T) {
	startGets, startHits := tensor.DefaultPool().Stats()
	if _, err := Train(AlgPPO, tinyConfig(11)); err != nil {
		t.Fatal(err)
	}
	gets, hits := tensor.DefaultPool().Stats()
	gets, hits = gets-startGets, hits-startHits
	if gets == 0 {
		t.Fatal("Train recorded no tensor-pool traffic; the pooled path is not in use")
	}
	if hits == 0 {
		t.Fatalf("Train recycled nothing out of %d pool requests", gets)
	}
	hitRate := float64(hits) / float64(gets)
	if hitRate < 0.5 {
		t.Fatalf("pool hit rate %.2f, want >= 0.5 (gets=%d recycled=%d)", hitRate, gets, hits)
	}
}

// TestTrainReportsParticipation: a run surfaces its per-round participation,
// full at the default K. (A round every upload of which is dropped is
// fed:TestRunRoundSurvivesTotalDropOut.)
func TestTrainReportsParticipation(t *testing.T) {
	cfg := tinyConfig(17)
	r, err := Train(AlgFedAvg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := cfg.Episodes / cfg.CommEvery
	if len(r.Federation.Reports) != rounds {
		t.Fatalf("reports for %d rounds, want %d", len(r.Federation.Reports), rounds)
	}
	for i, rep := range r.Federation.Reports {
		if rep.Participants != len(cfg.Specs) {
			t.Fatalf("round %d participation %d, want full %d", i, rep.Participants, len(cfg.Specs))
		}
	}
}

// TestAlgorithmTable pins the one algorithm table against README's rendering
// of it: every spelling parses (any case), an unknown one is refused with the
// documented list, and a 2-client setup + federate yields the agent kind,
// transport, payload and K the README row states.
func TestAlgorithmTable(t *testing.T) {
	readme := []struct {
		alg       Algorithm
		spellings []string
		dual      bool
		transport string // "" = nothing travels
		psiOnly   bool   // payload is ψ alone, not actor + critic
		agg       string
		k         int // of N = 2
	}{
		{AlgPPO, []string{"ppo"}, false, "", false, "", 0},
		{AlgFedAvg, []string{"fedavg"}, false, "actor+critic", false, "FedAvg", 2},
		{AlgMFPO, []string{"mfpo"}, false, "actor+critic", false, "MFPO", 2},
		{AlgPFRLDM, []string{"pfrl-dm", "pfrldm"}, true, "public-critic", true, "PFRL-DM", 1},
	}
	if len(readme) != len(algorithms) {
		t.Fatalf("README states %d algorithms, the table has %d", len(readme), len(algorithms))
	}
	for _, row := range readme {
		for _, sp := range append([]string{row.alg.String()}, row.spellings...) {
			for _, s := range []string{sp, strings.ToUpper(sp), strings.ToLower(sp)} {
				if got, err := ParseAlgorithm(s); err != nil || got != row.alg {
					t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", s, got, err, row.alg)
				}
			}
		}
		if row.alg.Spellings()[0] != row.spellings[0] {
			t.Fatalf("%v: documented spelling %q, README says %q", row.alg, row.alg.Spellings()[0], row.spellings[0])
		}

		cfg := tinyConfig(5)
		cfg.Specs = cfg.Specs[:2]
		r, err := setup(row.alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		agent := r.Clients[0].Agent
		if dual := agent.PublicCritic != nil; dual != row.dual {
			t.Fatalf("%v: dual-critic clients %v, README says %v", row.alg, dual, row.dual)
		}
		f, err := r.federate(cfg, nil)
		if row.transport == "" {
			if err == nil {
				t.Fatalf("%v federated, README says nothing travels", row.alg)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", row.alg, err)
		}
		want := nn.NumParams(agent.Actor) + nn.NumParams(agent.Critic)
		if row.psiOnly {
			want = nn.NumParams(agent.PublicCritic)
		}
		if f.Transport.Name() != row.transport || f.Agg.Name() != row.agg || f.K != row.k ||
			f.Transport.PayloadSize(r.Clients[0]) != want {
			t.Fatalf("%v: transport %q aggregator %q K %d payload %d; README says %q %q %d %d", row.alg,
				f.Transport.Name(), f.Agg.Name(), f.K, f.Transport.PayloadSize(r.Clients[0]),
				row.transport, row.agg, row.k, want)
		}
	}
	// The retired extension baselines' spellings fail like any unknown name.
	for _, name := range []string{"sarsa", "fedprox", "secure-fedavg"} {
		_, err := ParseAlgorithm(name)
		if err == nil || !strings.HasSuffix(err.Error(), "(want ppo|fedavg|mfpo|pfrl-dm)") {
			t.Fatalf("unknown algorithm %q: %v, want an error listing the spellings", name, err)
		}
	}
	if got := Algorithm(len(algorithms)).String(); got != "Algorithm(4)" {
		t.Fatalf("out-of-table algorithm prints %q", got)
	}
}

// TestBuildClientsParallelMatchesSerial pins the parallel client build to
// the serial one for every algorithm row: the same actor, φ and ψ bits, the
// same tasks and the same environment configuration per client. With two
// clients broken, both builds return the lower one's error.
func TestBuildClientsParallelMatchesSerial(t *testing.T) {
	cfg := DefaultExperiment(9)
	cfg.TasksPerClient = 20
	data, err := SampleClientData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := func(m *nn.MLP) []float64 {
		if m == nil {
			return nil
		}
		return nn.FlattenParams(m)
	}
	for _, alg := range AllAlgorithms() {
		build := func(parallel bool) []*fed.Client {
			c := cfg
			c.Parallel = parallel
			clients, err := BuildClients(alg, c, data)
			if err != nil {
				t.Fatalf("%v parallel %v: %v", alg, parallel, err)
			}
			return clients
		}
		serial, parallel := build(false), build(true)
		for i, s := range serial {
			p := parallel[i]
			for _, net := range []struct {
				name string
				s, p *nn.MLP
			}{{"actor", s.Agent.Actor, p.Agent.Actor}, {"φ", s.Agent.Critic, p.Agent.Critic}, {"ψ", s.Agent.PublicCritic, p.Agent.PublicCritic}} {
				sp, pp := params(net.s), params(net.p)
				if len(sp) != len(pp) {
					t.Fatalf("%v client %d %s: %d parameters serial, %d parallel", alg, i, net.name, len(sp), len(pp))
				}
				for k := range sp {
					if math.Float64bits(sp[k]) != math.Float64bits(pp[k]) {
						t.Fatalf("%v client %d %s: parameter %d is %v serial, %v parallel", alg, i, net.name, k, sp[k], pp[k])
					}
				}
			}
			if s.ID != p.ID || s.Name != p.Name || !reflect.DeepEqual(s.Tasks, p.Tasks) ||
				!reflect.DeepEqual(s.Env.Config(), p.Env.Config()) {
				t.Fatalf("%v client %d: id, name, tasks or environment differ between the builds", alg, i)
			}
		}
	}

	broken := append([]ClientData(nil), data...)
	broken[3].Spec.VMs = nil
	broken[6].Spec.VMs = []cloudsim.VMSpec{{CPU: 1}}
	for _, parallel := range []bool{false, true} {
		c := cfg
		c.Parallel = parallel
		clients, err := BuildClients(AlgPFRLDM, c, broken)
		if clients != nil || err == nil || !strings.HasPrefix(err.Error(), "fed: client 3:") {
			t.Fatalf("parallel %v: %d clients, error %v; want client 3's", parallel, len(clients), err)
		}
	}
}
