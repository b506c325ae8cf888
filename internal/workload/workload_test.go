package workload

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllBuiltinModelsValid(t *testing.T) {
	for _, id := range AllDatasets() {
		if err := Lookup(id).Validate(); err != nil {
			t.Errorf("%v: %v", id, err)
		}
	}
}

func TestLookupReturnsCopy(t *testing.T) {
	a := Lookup(Google)
	a.RatePerSlot = 999
	if Lookup(Google).RatePerSlot == 999 {
		t.Fatal("Lookup must return a copy")
	}
}

func TestLookupUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Lookup(DatasetID(99))
}

func TestDatasetStrings(t *testing.T) {
	if Google.String() != "Google" || K8S.String() != "K8S" {
		t.Fatal("dataset names wrong")
	}
	if DatasetID(42).String() != "DatasetID(42)" {
		t.Fatal("unknown id formatting wrong")
	}
	if len(AllDatasets()) != 10 {
		t.Fatal("expected 10 datasets")
	}
}

func TestSampleCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tasks := SampleDataset(Google, rng, 500)
	if len(tasks) != 500 {
		t.Fatalf("got %d tasks", len(tasks))
	}
}

func TestSampleValidAndOrdered(t *testing.T) {
	for _, id := range AllDatasets() {
		rng := rand.New(rand.NewSource(int64(id) + 10))
		m := Lookup(id)
		tasks := m.Sample(rng, 300)
		prev := -1
		for i, tk := range tasks {
			if tk.ID != i {
				t.Fatalf("%v: ID not sequential", id)
			}
			if tk.Arrival < prev {
				t.Fatalf("%v: arrivals not monotone", id)
			}
			prev = tk.Arrival
			if tk.CPU < 1 {
				t.Fatalf("%v: non-positive CPU", id)
			}
			if tk.Mem < m.MemMin || tk.Mem > m.MemMax {
				t.Fatalf("%v: mem %v outside [%v,%v]", id, tk.Mem, m.MemMin, m.MemMax)
			}
			if tk.Duration < m.DurMin || tk.Duration > m.DurMax {
				t.Fatalf("%v: duration %v outside bounds", id, tk.Duration)
			}
			if tk.Source != id {
				t.Fatalf("%v: wrong source", id)
			}
		}
	}
}

func TestSampleDeterministicForSeed(t *testing.T) {
	a := SampleDataset(HPCHF, rand.New(rand.NewSource(7)), 100)
	b := SampleDataset(HPCHF, rand.New(rand.NewSource(7)), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic for fixed seed")
		}
	}
}

func TestCPUChoicesRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := Lookup(HPCHF)
	allowed := map[int]bool{}
	for _, c := range m.CPUChoices {
		allowed[c] = true
	}
	for _, tk := range m.Sample(rng, 500) {
		if !allowed[tk.CPU] {
			t.Fatalf("CPU %d not in model choices", tk.CPU)
		}
	}
}

func TestHeterogeneityAcrossDatasets(t *testing.T) {
	// The design-critical property: Google tasks are small & short,
	// HPC-HF tasks are large & long, and their arrival rates differ by >2x.
	rng := rand.New(rand.NewSource(3))
	g := Characterize("g", SampleDataset(Google, rng, 2000))
	h := Characterize("h", SampleDataset(HPCHF, rng, 2000))
	if !(g.CPUMean*3 < h.CPUMean) {
		t.Fatalf("CPU heterogeneity too weak: google %v vs hpc %v", g.CPUMean, h.CPUMean)
	}
	if !(g.DurMean*3 < h.DurMean) {
		t.Fatalf("duration heterogeneity too weak: %v vs %v", g.DurMean, h.DurMean)
	}
	if !(g.RatePerSlot > 2*h.RatePerSlot) {
		t.Fatalf("rate heterogeneity too weak: %v vs %v", g.RatePerSlot, h.RatePerSlot)
	}
}

func TestMeasuredRateMatchesModel(t *testing.T) {
	for _, id := range []DatasetID{Google, KVM2019, HPCKS} {
		rng := rand.New(rand.NewSource(int64(id) + 50))
		m := Lookup(id)
		c := Characterize(m.Name, m.Sample(rng, 4000))
		ratio := c.RatePerSlot / m.RatePerSlot
		if ratio < 0.6 || ratio > 1.6 {
			t.Fatalf("%v: measured rate %v vs model %v (ratio %v)", id, c.RatePerSlot, m.RatePerSlot, ratio)
		}
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	base := Lookup(Google)
	cases := []func(*Model){
		func(m *Model) { m.CPUChoices = nil },
		func(m *Model) { m.CPUWeights = m.CPUWeights[:1] },
		func(m *Model) { m.MemPerCPU = 0 },
		func(m *Model) { m.MemMax = m.MemMin - 1 },
		func(m *Model) { m.DurMin = 0 },
		func(m *Model) { m.DurMax = m.DurMin - 1 },
		func(m *Model) { m.RatePerSlot = 0 },
		func(m *Model) { m.Burstiness = 0 },
		func(m *Model) { m.Burstiness = 1.5 },
		func(m *Model) { m.DiurnalPeriod = 0 },
		func(m *Model) { m.CPUWeights = []float64{-1, 1, 1, 1} },
		func(m *Model) { m.CPUWeights = []float64{0, 0, 0, 0} },
	}
	for i, mutate := range cases {
		m := *base
		m.CPUWeights = append([]float64(nil), base.CPUWeights...)
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tasks := SampleDataset(Google, rng, 100)
	train, test := Split(tasks, 0.6)
	if len(train) != 60 || len(test) != 40 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	if test[0].Arrival != 0 {
		t.Fatal("test set should be rebased to slot 0")
	}
	if test[0].ID != 0 {
		t.Fatal("test set should be renumbered")
	}
	// Boundary fractions.
	tr, te := Split(tasks, 0)
	if len(tr) != 0 || len(te) != 100 {
		t.Fatal("Split(0) wrong")
	}
	tr, te = Split(tasks, 1)
	if len(tr) != 100 || len(te) != 0 {
		t.Fatal("Split(1) wrong")
	}
}

func TestRebaseEmpty(t *testing.T) {
	if len(Rebase(nil)) != 0 {
		t.Fatal("Rebase(nil) should be empty")
	}
}

func TestCombineOrdersByArrival(t *testing.T) {
	a := []Task{{ID: 0, Arrival: 5}, {ID: 1, Arrival: 10}}
	b := []Task{{ID: 0, Arrival: 3}, {ID: 1, Arrival: 7}}
	all := Combine(a, b)
	if len(all) != 4 {
		t.Fatalf("combined %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Arrival < all[i-1].Arrival {
			t.Fatal("not sorted by arrival")
		}
	}
	if all[0].Arrival != 0 {
		t.Fatal("should be rebased")
	}
}

func TestHybridMixComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	others := []DatasetID{Alibaba2017, HPCHF, K8S}
	mix := HybridMix(rng, Google, others, 200, 0.2)
	if len(mix) != 200 {
		t.Fatalf("mix size %d", len(mix))
	}
	bySource := map[DatasetID]int{}
	for _, tk := range mix {
		bySource[tk.Source]++
	}
	if bySource[Google] != 40 {
		t.Fatalf("native fraction wrong: %d google tasks", bySource[Google])
	}
	foreign := 0
	for _, id := range others {
		if bySource[id] == 0 {
			t.Fatalf("dataset %v missing from mix", id)
		}
		foreign += bySource[id]
	}
	if foreign != 160 {
		t.Fatalf("foreign count %d", foreign)
	}
}

func TestHybridMixNoOthers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mix := HybridMix(rng, Google, nil, 50, 0.2)
	// Only native tasks can be produced.
	if len(mix) != 10 {
		t.Fatalf("expected 10 native tasks, got %d", len(mix))
	}
}

func TestSubsample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tasks := SampleDataset(K8S, rng, 100)
	sub := Subsample(rng, tasks, 30)
	if len(sub) != 30 {
		t.Fatalf("subsample size %d", len(sub))
	}
	for i := 1; i < len(sub); i++ {
		if sub[i].Arrival < sub[i-1].Arrival {
			t.Fatal("subsample lost arrival order")
		}
	}
	full := Subsample(rng, tasks, 200)
	if len(full) != 100 {
		t.Fatal("oversized k should return all tasks")
	}
}

func TestCharacterizeEmpty(t *testing.T) {
	c := Characterize("empty", nil)
	if c.Tasks != 0 {
		t.Fatal("empty characterization wrong")
	}
	// Every statistic must be a finite zero — NaN here breaks json.Marshal
	// in the report paths (json: unsupported value: NaN).
	for name, v := range map[string]float64{
		"CPUMean": c.CPUMean, "CPUP50": c.CPUP50, "CPUP95": c.CPUP95,
		"MemMean": c.MemMean, "MemP50": c.MemP50, "MemP95": c.MemP95,
		"DurMean": c.DurMean, "DurP50": c.DurP50, "DurP95": c.DurP95,
		"RatePerSlot": c.RatePerSlot, "RatePeak": c.RatePeak,
	} {
		if v != 0 {
			t.Fatalf("%s = %v on empty set, want 0", name, v)
		}
	}
	if _, err := json.Marshal(c); err != nil {
		t.Fatalf("empty characterization does not marshal: %v", err)
	}
}

// TestHybridMixBoundaryFractions pins the rounding and clamping of the
// native count: nNative = round(n*frac) with frac clamped to [0,1], so small
// fractions are not truncated to zero and out-of-range fractions cannot
// produce negative or oversized sample requests.
func TestHybridMixBoundaryFractions(t *testing.T) {
	others := []DatasetID{Alibaba2017}
	cases := []struct {
		name       string
		n          int
		frac       float64
		wantNative int
	}{
		{"truncation-bug", 7, 0.1, 1}, // int(0.7) == 0 before the fix
		{"round-down", 10, 0.04, 0},   // round(0.4) == 0
		{"round-up", 10, 0.05, 1},     // round(0.5) == 1 (half away from zero)
		{"negative-clamped", 10, -0.5, 0},
		{"zero", 10, 0, 0},
		{"one", 10, 1, 10},
		{"over-one-clamped", 10, 1.5, 10},
		{"exact-fifth", 200, 0.2, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			mix := HybridMix(rng, Google, others, tc.n, tc.frac)
			if len(mix) != tc.n {
				t.Fatalf("mix size %d, want %d", len(mix), tc.n)
			}
			native := 0
			for _, tk := range mix {
				if tk.Source == Google {
					native++
				}
			}
			if native != tc.wantNative {
				t.Fatalf("native count %d, want %d", native, tc.wantNative)
			}
		})
	}
}

func TestHourlyArrivalRates(t *testing.T) {
	tasks := []Task{{Arrival: 0}, {Arrival: 1}, {Arrival: 5}, {Arrival: 6}, {Arrival: 11}}
	rates := HourlyArrivalRates(tasks, 6)
	if len(rates) != 2 {
		t.Fatalf("buckets %d", len(rates))
	}
	if math.Abs(rates[0]-3.0/6) > 1e-12 || math.Abs(rates[1]-2.0/6) > 1e-12 {
		t.Fatalf("rates %v", rates)
	}
	if HourlyArrivalRates(nil, 6) != nil {
		t.Fatal("nil tasks should give nil rates")
	}
	if HourlyArrivalRates(tasks, 0) != nil {
		t.Fatal("bad bucket size should give nil")
	}
}

func TestExecTimeCDF(t *testing.T) {
	tasks := []Task{{Duration: 1}, {Duration: 1}, {Duration: 3}, {Duration: 7}}
	d, c := ExecTimeCDF(tasks)
	if len(d) != 3 {
		t.Fatalf("distinct durations %d", len(d))
	}
	if d[0] != 1 || c[0] != 0.5 {
		t.Fatalf("first point (%v,%v)", d[0], c[0])
	}
	if c[len(c)-1] != 1.0 {
		t.Fatal("CDF must end at 1")
	}
	for i := 1; i < len(c); i++ {
		if c[i] <= c[i-1] || d[i] <= d[i-1] {
			t.Fatal("CDF not strictly increasing")
		}
	}
}

func TestResourceHistogram(t *testing.T) {
	tasks := []Task{{CPU: 1}, {CPU: 1}, {CPU: 5}, {CPU: 10}}
	edges, counts := ResourceHistogram(tasks, 3, func(t Task) float64 { return float64(t.CPU) })
	if len(edges) != 3 || len(counts) != 3 {
		t.Fatalf("bins %d/%d", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Fatalf("histogram lost tasks: %d", total)
	}
	// Degenerate single-value input must not divide by zero.
	e2, c2 := ResourceHistogram([]Task{{CPU: 2}, {CPU: 2}}, 2, func(t Task) float64 { return float64(t.CPU) })
	if len(e2) != 2 || c2[0]+c2[1] != 2 {
		t.Fatal("degenerate histogram wrong")
	}
}

func TestPropSplitPartition(t *testing.T) {
	f := func(seed int64, fracRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		frac := float64(fracRaw) / 255
		tasks := SampleDataset(Alibaba2017, rng, 80)
		train, test := Split(tasks, frac)
		return len(train)+len(test) == len(tasks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropArrivalsNonDecreasing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		id := AllDatasets()[int(uint64(seed)%10)]
		tasks := SampleDataset(id, rng, 60)
		for i := 1; i < len(tasks); i++ {
			if tasks[i].Arrival < tasks[i-1].Arrival {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTable1RowCount(t *testing.T) {
	if len(Table1()) != 15 {
		t.Fatalf("Table 1 rows %d, want 15", len(Table1()))
	}
}
