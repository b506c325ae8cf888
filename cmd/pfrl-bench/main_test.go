package main

import (
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fed"
)

// captureStdout runs fn with os.Stdout redirected to a file and returns what
// it printed (the runners write straight to os.Stdout).
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	fn()
	os.Stdout = saved
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestEveryExperimentIDDispatches drives each id of the -exp usage string
// through run at a 2-episode size: an id dropped from the dispatch switch
// fails here as "unknown experiment".
func TestEveryExperimentIDDispatches(t *testing.T) {
	bc := benchConfig{seed: 1, scale: 4, tasks: 10, episodes: 2, comm: 1, smooth: 5,
		workloadSpec: filepath.Join("..", "..", "examples", "hybridworkloads", "twoclient.json")}
	all := map[string]bool{}
	for _, id := range expand("all") {
		all[id] = true
	}
	for _, id := range strings.Fields(expIDs) {
		if id == "all" {
			continue
		}
		var err error
		out := captureStdout(t, func() { err = run(id, bc) })
		if err != nil {
			t.Fatalf("-exp %s: %v", id, err)
		}
		if id == "fig11" {
			for _, want := range []string{"focus attention:", "focus KL:", "focus cosine:"} {
				if !strings.Contains(out, want) {
					t.Errorf("-exp fig11 output lacks a %q line:\n%s", want, out)
				}
			}
		}
		// table4 is printed by fig16's pass; spec needs a -workload-spec file.
		if id != "table4" && id != "spec" && !all[id] {
			t.Errorf("-exp all does not run %s", id)
		}
	}
	if err := run("scale", bc); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("run(scale) = %v, want an unknown-experiment error", err)
	}
}

// TestAblationHeadsFourIsTheDefault guards runAblation's shortcut: it prints
// the pfrl-dm curve as the heads=4 row, which is that run only while PFRL-DM's
// attention aggregator defaults to four heads.
func TestAblationHeadsFourIsTheDefault(t *testing.T) {
	if h := fed.NewAttention(1).Gen.Heads; h != 4 {
		t.Fatalf("PFRL-DM's aggregator defaults to %d heads; runAblation's heads=4 row assumes 4", h)
	}
}

// TestConvergenceRunsAreReused: within one invocation fig9 reads the FedAvg
// run fig8 trained on Table 2 and fig16 the four runs fig15 trained on Table
// 3, training nothing again, and each prints what it prints run alone.
func TestConvergenceRunsAreReused(t *testing.T) {
	alone := benchConfig{seed: 1, scale: 4, tasks: 10, episodes: 2, comm: 1, smooth: 5}
	shared := alone
	shared.runs = map[trainKey]*core.TrainResult{}
	for _, c := range []struct {
		first, then string
		runs        int
	}{{"fig8", "fig9", 2}, {"fig15", "fig16", 6}} {
		var err error
		captureStdout(t, func() { err = run(c.first, shared) })
		if err != nil || len(shared.runs) != c.runs {
			t.Fatalf("-exp %s: %d runs held, want %d (err %v)", c.first, len(shared.runs), c.runs, err)
		}
		held := maps.Clone(shared.runs)
		got := captureStdout(t, func() { err = run(c.then, shared) })
		if err != nil || !maps.Equal(shared.runs, held) {
			t.Fatalf("-exp %s after %s changed the runs held (err %v)", c.then, c.first, err)
		}
		if want := captureStdout(t, func() { err = run(c.then, alone) }); err != nil || got != want {
			t.Fatalf("-exp %s after %s printed\n%s\nand alone (err %v)\n%s", c.then, c.first, got, err, want)
		}
	}
	_, results, err := shared.convergence(2, []core.Algorithm{core.AlgFedAvg})
	if err != nil || results[core.AlgFedAvg] != shared.runs[trainKey{2, core.AlgFedAvg}] {
		t.Fatalf("a held run was trained again (err %v)", err)
	}
}
