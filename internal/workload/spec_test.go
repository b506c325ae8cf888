package workload

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// presetDigests freeze the ten datasets: FNV-1a over every field of the
// compiled model (each float printed to the bit) and over every field of 300
// sampled tasks × seeds 1, 7, 42. They were computed at commit d9490b9 from
// the Go literals the presets replaced, so "the ten datasets did not move"
// stays pinned now that specs/*.json is their only definition.
var presetDigests = map[DatasetID]struct{ model, tasks uint64 }{
	Google:      {0xacb1176fa3854594, 0xf420573073e18727},
	Alibaba2017: {0x163d2836b933d026, 0xb8da47ff9e40144c},
	Alibaba2018: {0x52bae7923e8c3830, 0x777cef9d51e7ed21},
	HPCKS:       {0xafcd1f8402223149, 0xcc76bbf02bee92ba},
	HPCHF:       {0x2d3f5fc4bcbbe875, 0x7d0ff2289073fec0},
	HPCWZ:       {0xf519324da87d1dd3, 0x04b609a4a87e87e3},
	KVM2019:     {0x0ef9b23e9c5ab4a3, 0xe6ab26c461302cc3},
	KVM2020:     {0x12e614f40fbf8fb4, 0x1a6699fccd53d7d1},
	CERITSC:     {0x8e44af9fd9b65f1a, 0x0213169de6b47f56},
	K8S:         {0x416e0c479247b3de, 0x8166cfa223fdf908},
}

func hashTask(h hash.Hash64, tk Task) {
	fmt.Fprintf(h, "%d,%d,%d,%x,%d,%d,%d;", tk.ID, tk.Arrival, tk.CPU,
		math.Float64bits(tk.Mem), tk.Duration, tk.Source, tk.SLO)
}

// TestPresetSpecsMatchBuiltins pins every shipped preset against the frozen
// digests of the builtin dataset it defines: the model Lookup serves, and
// the task stream through Lookup's SampleDataset, the compiled spec's Sample
// and its Stream. A preset field that moves by one ulp moves the model digest.
func TestPresetSpecsMatchBuiltins(t *testing.T) {
	for _, id := range AllDatasets() {
		spec, err := PresetSpec(id)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		comp, err := spec.Compile()
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if len(comp.Clients) != 1 {
			t.Fatalf("%v: preset has %d clients, want 1", id, len(comp.Clients))
		}
		want := presetDigests[id]
		model := fnv.New64a()
		fmt.Fprintf(model, "%+v", *Lookup(id))
		if got := model.Sum64(); got != want.model {
			t.Errorf("%v: model digest %#016x, want %#016x: %+v", id, got, want.model, *Lookup(id))
		}
		dataset, sample, stream := fnv.New64a(), fnv.New64a(), fnv.New64a()
		for _, seed := range []int64{1, 7, 42} {
			for _, tk := range SampleDataset(id, rand.New(rand.NewSource(seed)), 300) {
				hashTask(dataset, tk)
			}
			got := comp.Sample(rand.New(rand.NewSource(seed)), 300)
			if len(got) != 300 {
				t.Fatalf("%v seed %d: Sample emitted %d tasks, want 300", id, seed, len(got))
			}
			for _, tk := range got {
				hashTask(sample, tk)
			}
			st := comp.Stream(rand.New(rand.NewSource(seed)), 300)
			for i := 0; i < 300; i++ {
				tk, ok := st.Next()
				if !ok {
					t.Fatalf("%v seed %d: Stream ended at task %d", id, seed, i)
				}
				hashTask(stream, tk)
			}
			if _, ok := st.Next(); ok {
				t.Fatalf("%v seed %d: Stream emitted more than 300 tasks", id, seed)
			}
		}
		for path, h := range map[string]hash.Hash64{"SampleDataset": dataset, "Sample": sample, "Stream": stream} {
			if got := h.Sum64(); got != want.tasks {
				t.Errorf("%v: %s task digest %#016x, want %#016x", id, path, got, want.tasks)
			}
		}
	}
}

// legacyReferenceSample is the pre-refactor generator, kept verbatim as the
// golden reference: per-slot batch gate, geometric batches, and — the perf
// nit this PR fixed — a CPU sampler that re-sums the weight vector on every
// draw. The cumulative-weight sampler must select identically.
func legacyReferenceSample(m *Model, rng *rand.Rand, n int) []Task {
	sampleCPU := func() int {
		total := 0.0
		for _, w := range m.CPUWeights {
			total += w
		}
		u := rng.Float64() * total
		acc := 0.0
		for i, w := range m.CPUWeights {
			acc += w
			if u < acc {
				return m.CPUChoices[i]
			}
		}
		return m.CPUChoices[len(m.CPUChoices)-1]
	}
	tasks := make([]Task, 0, n)
	slot := 0
	for len(tasks) < n {
		phase := 2 * math.Pi * float64(slot%m.DiurnalPeriod) / float64(m.DiurnalPeriod)
		rate := m.RatePerSlot * (1 + m.DiurnalAmp*math.Sin(phase))
		if rate < 0 {
			rate = 0
		}
		pBatch := m.Burstiness * rate
		if pBatch > 1 {
			pBatch = 1
		}
		if rng.Float64() < pBatch {
			batch := 1
			for rng.Float64() > m.Burstiness && batch < 64 {
				batch++
			}
			for b := 0; b < batch && len(tasks) < n; b++ {
				cpu := sampleCPU()
				tasks = append(tasks, Task{
					ID:       len(tasks),
					Arrival:  slot,
					CPU:      cpu,
					Mem:      m.sampleMem(rng, cpu),
					Duration: m.sampleDuration(rng),
					Source:   m.ID,
					SLO:      m.SLO,
				})
			}
		}
		slot++
	}
	return tasks
}

// TestSampleMatchesLegacyGenerator pins the Stream-drain Sample (with its
// precomputed cumulative CPU weights) against a verbatim copy of the
// historical generator, for every builtin model and several seeds.
func TestSampleMatchesLegacyGenerator(t *testing.T) {
	for _, id := range AllDatasets() {
		m := Lookup(id)
		for _, seed := range []int64{1, 7, 42, 1234} {
			want := legacyReferenceSample(m, rand.New(rand.NewSource(seed)), 400)
			got := m.Sample(rand.New(rand.NewSource(seed)), 400)
			if len(got) != len(want) {
				t.Fatalf("%v seed %d: %d tasks, want %d", id, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v seed %d: task %d = %+v, want %+v", id, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func twoClientTestSpec() *Spec {
	return &Spec{
		Name: "two-tenant",
		Clients: []SpecClient{
			{
				ID: "interactive", RateFraction: 0.7, SLOClass: "critical",
				Arrival: ArrivalSpec{Process: "poisson", RatePerSlot: 1.2, DiurnalAmp: 0.3},
				CPU:     CPUSpec{Choices: []int{1, 2}, Weights: []float64{0.8, 0.2}},
				Memory:  MemSpec{PerCPU: 2, Spread: 0.4, Min: 0.25, Max: 16},
				Duration: DurSpec{
					Dist: "quantile", Quantiles: []float64{1, 2, 4, 9, 30}, Min: 1, Max: 40,
				},
			},
			{
				ID: "batch", RateFraction: 0.3, SLOClass: "best-effort",
				Arrival: ArrivalSpec{Process: "gamma-burst", RatePerSlot: 0.4, Burstiness: 0.5, GapShape: 2},
				CPU:     CPUSpec{Choices: []int{4, 8, 16}, Weights: []float64{0.5, 0.3, 0.2}},
				Memory: MemSpec{
					Dist: "quantile", Quantiles: []float64{8, 16, 32, 64, 96}, Min: 4, Max: 128,
				},
				Duration: DurSpec{Median: 60, Sigma: 1.0, Min: 5, Max: 500},
			},
		},
	}
}

// TestMultiClientSpecDeterminism runs a two-client spec twice with the same
// seed (run-twice determinism) and checks the sampled set is well-formed:
// arrival-ordered, rebased, IDs sequential, fields within spec bounds, and
// both clients' SLO classes present in roughly their rate fractions.
func TestMultiClientSpecDeterminism(t *testing.T) {
	comp, err := twoClientTestSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	a := comp.Sample(rand.New(rand.NewSource(9)), n)
	b := comp.Sample(rand.New(rand.NewSource(9)), n)
	if len(a) != n || len(b) != n {
		t.Fatalf("sampled %d and %d tasks, want %d", len(a), len(b), n)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run-twice divergence at task %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].Arrival != 0 {
		// Combine rebases: the earliest arrival must sit at slot 0.
		t.Fatalf("first arrival = %d, want 0", a[0].Arrival)
	}
	counts := map[SLOClass]int{}
	for i, tk := range a {
		if tk.ID != i {
			t.Fatalf("task %d has ID %d", i, tk.ID)
		}
		if i > 0 && tk.Arrival < a[i-1].Arrival {
			t.Fatalf("arrival regression at task %d", i)
		}
		counts[tk.SLO]++
		switch tk.SLO {
		case SLOCritical:
			if tk.CPU > 2 || tk.Duration > 40 {
				t.Fatalf("interactive task %d out of bounds: %+v", i, tk)
			}
		case SLOBestEffort:
			if tk.CPU < 4 || tk.Mem < 4 {
				t.Fatalf("batch task %d out of bounds: %+v", i, tk)
			}
		default:
			t.Fatalf("task %d has unexpected class %v", i, tk.SLO)
		}
	}
	if counts[SLOCritical] != 420 || counts[SLOBestEffort] != 180 {
		t.Fatalf("class shares = %v, want 70/30 split of %d (420/180)", counts, n)
	}
}

// referenceSpecSample is the batch construction Compiled.Sample used before
// it became a drain of Stream, kept here as the reference the merge stream is
// pinned against: one child RNG per client seeded from the caller's RNG in
// client order, each client's share sampled whole, and the sets Combined
// (stable arrival sort, rebased, IDs renumbered).
func referenceSpecSample(c *Compiled, rng *rand.Rand, n int) []Task {
	counts := c.counts(n)
	sets := make([][]Task, len(c.Clients))
	for i, cl := range c.Clients {
		crng := rand.New(rand.NewSource(rng.Int63()))
		sets[i] = cl.Model.Sample(crng, counts[i])
	}
	return Combine(sets...)
}

// TestSpecStreamMatchesSample pins the multi-client merge stream (and Sample,
// its drain) against the per-client Sample + Combine reference, bit for bit.
func TestSpecStreamMatchesSample(t *testing.T) {
	comp, err := twoClientTestSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{3, 11, 77} {
		want := referenceSpecSample(comp, rand.New(rand.NewSource(seed)), 500)
		if len(want) != 500 {
			t.Fatalf("seed %d: reference sampled %d tasks, want 500", seed, len(want))
		}
		drained := comp.Sample(rand.New(rand.NewSource(seed)), 500)
		if len(drained) != len(want) {
			t.Fatalf("seed %d: Sample emitted %d tasks, want %d", seed, len(drained), len(want))
		}
		st := comp.Stream(rand.New(rand.NewSource(seed)), 500)
		if st.Remaining() != 500 {
			t.Fatalf("seed %d: Remaining = %d, want 500", seed, st.Remaining())
		}
		for i := range want {
			tk, ok := st.Next()
			if !ok {
				t.Fatalf("seed %d: stream ended at task %d", seed, i)
			}
			if tk != want[i] {
				t.Fatalf("seed %d: task %d = %+v, want %+v", seed, i, tk, want[i])
			}
			if drained[i] != want[i] {
				t.Fatalf("seed %d: Sample task %d = %+v, want %+v", seed, i, drained[i], want[i])
			}
		}
		if _, ok := st.Next(); ok {
			t.Fatalf("seed %d: stream emitted extra tasks", seed)
		}
		if st.Remaining() != 0 {
			t.Fatalf("seed %d: Remaining = %d after drain", seed, st.Remaining())
		}
	}
}

// TestSpecParseErrors exercises the strict parser and the validator's
// client/field error context.
func TestSpecParseErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"malformed", `{"name": "x", "clients": [`, "parse spec"},
		{"unknown field", `{"name": "x", "burstiness": 1}`, "unknown field"},
		{"trailing data", `{"name": "x", "clients": []} {}`, "trailing data"},
		{"no clients", `{"name": "x", "clients": []}`, "no clients"},
		{
			"empty id",
			`{"clients": [{"rate_fraction": 1, "arrival": {"rate_per_slot": 1, "burstiness": 1},
			  "cpu": {"choices": [1], "weights": [1]},
			  "memory": {"per_cpu": 1, "min": 1, "max": 2},
			  "duration": {"median": 5, "min": 1, "max": 10}}]}`,
			"id: must not be empty",
		},
		{
			"bad process",
			`{"clients": [{"id": "a", "rate_fraction": 1,
			  "arrival": {"process": "lognormal", "rate_per_slot": 1},
			  "cpu": {"choices": [1], "weights": [1]},
			  "memory": {"per_cpu": 1, "min": 1, "max": 2},
			  "duration": {"median": 5, "min": 1, "max": 10}}]}`,
			`arrival.process: unknown "lognormal"`,
		},
		{
			"bad slo class",
			`{"clients": [{"id": "a", "rate_fraction": 1, "slo_class": "gold",
			  "arrival": {"rate_per_slot": 1, "burstiness": 1},
			  "cpu": {"choices": [1], "weights": [1]},
			  "memory": {"per_cpu": 1, "min": 1, "max": 2},
			  "duration": {"median": 5, "min": 1, "max": 10}}]}`,
			`unknown slo_class "gold"`,
		},
		{
			"zero rate fraction",
			`{"clients": [{"id": "a", "rate_fraction": 0,
			  "arrival": {"rate_per_slot": 1, "burstiness": 1},
			  "cpu": {"choices": [1], "weights": [1]},
			  "memory": {"per_cpu": 1, "min": 1, "max": 2},
			  "duration": {"median": 5, "min": 1, "max": 10}}]}`,
			"rate_fraction",
		},
		{
			"zero weight sum",
			`{"clients": [{"id": "a", "rate_fraction": 1,
			  "arrival": {"rate_per_slot": 1, "burstiness": 1},
			  "cpu": {"choices": [1, 2], "weights": [0, 0]},
			  "memory": {"per_cpu": 1, "min": 1, "max": 2},
			  "duration": {"median": 5, "min": 1, "max": 10}}]}`,
			"zero total CPU weight",
		},
		{
			"duplicate client id",
			`{"name": "dup", "clients": [
			  {"id": "a", "rate_fraction": 1,
			   "arrival": {"rate_per_slot": 1, "burstiness": 1},
			   "cpu": {"choices": [1], "weights": [1]},
			   "memory": {"per_cpu": 1, "min": 1, "max": 2},
			   "duration": {"median": 5, "min": 1, "max": 10}},
			  {"id": "a", "rate_fraction": 1,
			   "arrival": {"rate_per_slot": 1, "burstiness": 1},
			   "cpu": {"choices": [1], "weights": [1]},
			   "memory": {"per_cpu": 1, "min": 1, "max": 2},
			   "duration": {"median": 5, "min": 1, "max": 10}}]}`,
			`id: duplicate "a"`,
		},
		{
			"missing gap shape",
			`{"clients": [{"id": "a", "rate_fraction": 1,
			  "arrival": {"process": "weibull", "rate_per_slot": 1, "burstiness": 0.5},
			  "cpu": {"choices": [1], "weights": [1]},
			  "memory": {"per_cpu": 1, "min": 1, "max": 2},
			  "duration": {"median": 5, "min": 1, "max": 10}}]}`,
			"gap shape",
		},
		{
			"decreasing quantiles",
			`{"clients": [{"id": "a", "rate_fraction": 1,
			  "arrival": {"rate_per_slot": 1, "burstiness": 1},
			  "cpu": {"choices": [1], "weights": [1]},
			  "memory": {"dist": "quantile", "quantiles": [4, 2], "min": 1, "max": 8},
			  "duration": {"median": 5, "min": 1, "max": 10}}]}`,
			"memory quantiles",
		},
	}
	for _, tc := range cases {
		s, err := ParseSpec(strings.NewReader(tc.json))
		if err == nil {
			err = s.Validate()
		}
		if err == nil {
			t.Errorf("%s: no error, want one containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadSpecFileContext checks that file-level failures carry the path.
func TestLoadSpecFileContext(t *testing.T) {
	if _, err := LoadSpec("/nonexistent/spec.json"); err == nil ||
		!strings.Contains(err.Error(), "/nonexistent/spec.json") {
		t.Fatalf("missing file error lacks path context: %v", err)
	}
}

// TestArrivalProcessesProduceValidStreams checks the non-legacy arrival
// processes emit ordered, bounded, deterministic streams.
func TestArrivalProcessesProduceValidStreams(t *testing.T) {
	base := Lookup(Google)
	for _, kind := range []ArrivalKind{ArrivalPoisson, ArrivalGammaBurst, ArrivalWeibull} {
		m := *base
		m.Arrival = kind
		m.GapShape = 1.5
		a := m.Sample(rand.New(rand.NewSource(5)), 500)
		b := m.Sample(rand.New(rand.NewSource(5)), 500)
		if len(a) != 500 {
			t.Fatalf("%d: sampled %d tasks", kind, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%d: nondeterministic at task %d", kind, i)
			}
			if i > 0 && a[i].Arrival < a[i-1].Arrival {
				t.Fatalf("%d: arrival regression at task %d", kind, i)
			}
			if a[i].CPU < 1 || !(a[i].Mem > 0) || a[i].Duration < m.DurMin || a[i].Duration > m.DurMax {
				t.Fatalf("%d: invalid task %+v", kind, a[i])
			}
		}
	}
}

// TestQuantileSampling checks inverse-CDF draws stay within the grid's
// hull and hit both tails across many draws.
func TestQuantileSampling(t *testing.T) {
	q := []float64{2, 4, 8, 16}
	rng := rand.New(rand.NewSource(3))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 10000; i++ {
		v := sampleQuantile(q, rng.Float64())
		if v < 2 || v > 16 {
			t.Fatalf("draw %v outside [2, 16]", v)
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > 3 || hi < 12 {
		t.Fatalf("draws never reached the tails: min %v max %v", lo, hi)
	}
	if got := sampleQuantile(q, 1); got != 16 {
		t.Fatalf("u=1 -> %v, want 16", got)
	}
	if got := sampleQuantile(q, 0); got != 2 {
		t.Fatalf("u=0 -> %v, want 2", got)
	}
	if got := sampleQuantile(q, 0.5); got != 6 {
		t.Fatalf("u=0.5 -> %v, want 6 (midpoint of 4 and 8)", got)
	}
}
