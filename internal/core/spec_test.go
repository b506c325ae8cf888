package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// specConfig returns a tiny experiment where client 0 draws tasks from a
// declarative workload spec (the Google preset) and client 1 from a builtin
// dataset, with SLO shaping turned on.
func specConfig(seed int64) (ExperimentConfig, error) {
	cfg := tinyConfig(seed)
	spec, err := workload.PresetSpec(workload.Google)
	if err != nil {
		return cfg, err
	}
	cfg.Specs[0].Workload = spec
	cfg.SLOWaitCost = [workload.NumSLOClasses]float64{0.001, 0.002, 0.01}
	cfg.SLOWaitTarget = [workload.NumSLOClasses]int{0, 10, 5}
	return cfg, nil
}

// TestSpecDrivenSampleMatchesDataset pins the ClientSpec.Workload override:
// a client whose spec is the preset of its dataset samples an identical
// task set (the spec engine's preset bit-identity, observed through
// SampleClientData's own seeding and clamping).
func TestSpecDrivenSampleMatchesDataset(t *testing.T) {
	cfg := tinyConfig(5)
	legacy, err := SampleClientData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Specs {
		spec, err := workload.PresetSpec(cfg.Specs[i].Dataset)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Specs[i].Workload = spec
	}
	viaSpec, err := SampleClientData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range legacy {
		if len(legacy[i].Train) != len(viaSpec[i].Train) {
			t.Fatalf("client %d: train sizes differ", i)
		}
		for j := range legacy[i].Train {
			if legacy[i].Train[j] != viaSpec[i].Train[j] {
				t.Fatalf("client %d train task %d: %+v != %+v", i, j, legacy[i].Train[j], viaSpec[i].Train[j])
			}
		}
	}
}

// TestSpecDrivenTrainDeterminism runs a tiny spec-driven federated training
// twice and requires identical reward curves — the end-to-end determinism
// check for the spec → sample → env → SLO-shaped-reward path.
func TestSpecDrivenTrainDeterminism(t *testing.T) {
	run := func() []float64 {
		cfg, err := specConfig(11)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Train(AlgFedAvg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanCurve
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("curve lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("episode %d: %v != %v", i, a[i], b[i])
		}
	}
}

// TestSpecDrivenTrainBadSpec checks a non-compiling client spec surfaces a
// wrapped error naming the client instead of panicking mid-train.
func TestSpecDrivenTrainBadSpec(t *testing.T) {
	cfg := tinyConfig(3)
	cfg.Specs[1].Workload = &workload.Spec{Name: "broken"} // no clients
	_, err := Train(AlgPPO, cfg)
	if err == nil {
		t.Fatal("want error for spec with no clients")
	}
	if !strings.Contains(err.Error(), "client 1") || !strings.Contains(err.Error(), cfg.Specs[1].Name) {
		t.Fatalf("error %q does not name the failing client", err)
	}
}

// TestRunNewAgentUsesClientRecipe pins the Figure 20 joiner to the shared
// sample and environment recipes. The from-scratch baseline's curve depends
// only on the joiner's task set and environment, so: a joiner cloned from a
// client whose spec is dataset X's preset must train exactly as one cloned
// from a client with builtin dataset X (a joiner that ignored
// ClientSpec.Workload would sample the builtin Dataset instead), and SLO
// reward shaping must reach its environment.
func TestRunNewAgentUsesClientRecipe(t *testing.T) {
	fresh := func(edit func(*ExperimentConfig)) []float64 {
		cfg := tinyConfig(9)
		edit(&cfg)
		r, err := RunNewAgent(cfg, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		return r.Fresh
	}
	builtin := fresh(func(cfg *ExperimentConfig) { cfg.Specs[0].Dataset = workload.HPCHF })
	viaSpec := fresh(func(cfg *ExperimentConfig) {
		spec, err := workload.PresetSpec(workload.HPCHF)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Specs[0].Workload = spec // Dataset stays Google
	})
	sameCurve(t, "joiner from a workload spec vs its builtin dataset", builtin, viaSpec)

	shaped := fresh(func(cfg *ExperimentConfig) {
		cfg.Specs[0].Dataset = workload.HPCHF
		cfg.SLOWaitCost = [workload.NumSLOClasses]float64{0.01, 0.01, 0.01}
	})
	if reflect.DeepEqual(builtin, shaped) {
		t.Fatalf("SLO wait cost did not reach the joiner's environment: %v", shaped)
	}
}
