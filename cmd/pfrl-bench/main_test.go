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
		workloadSpec: filepath.Join("..", "..", "examples", "hybridworkloads", "twoclient.json"),
		runs:         map[trainKey]*core.TrainResult{}}
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

// TestConvergenceRunsAreReused: within one invocation every run is trained
// once. In -exp all's order, fig9 reads the FedAvg run fig8 trained on Table
// 2; after fig15's four Table-3 runs, fig16 trains nothing, fig21 only the
// frequencies other than -comm, and the ablation nothing for its pfrl-dm row.
// Each prints what it prints run alone, on a fresh memo.
func TestConvergenceRunsAreReused(t *testing.T) {
	bc := benchConfig{seed: 1, scale: 4, tasks: 10, episodes: 2, comm: 2, smooth: 5}
	shared := bc
	shared.runs = map[trainKey]*core.TrainResult{}
	for _, c := range []struct {
		id               string
		alone, afterPrev int // runs it trains alone, and after the rows above
	}{{"fig8", 2, 2}, {"fig9", 1, 0}, {"fig15", 4, 4}, {"fig16", 4, 0}, {"fig21", 4, 3}, {"ablation", 1, 0}} {
		alone := bc
		alone.runs = map[trainKey]*core.TrainResult{}
		var err error
		want := captureStdout(t, func() { err = run(c.id, alone) })
		if err != nil || len(alone.runs) != c.alone {
			t.Fatalf("-exp %s alone: %d runs trained, want %d (err %v)", c.id, len(alone.runs), c.alone, err)
		}
		held := maps.Clone(shared.runs)
		got := captureStdout(t, func() { err = run(c.id, shared) })
		if err != nil || len(shared.runs) != len(held)+c.afterPrev {
			t.Fatalf("-exp %s: %d runs trained, want %d (err %v)", c.id, len(shared.runs)-len(held), c.afterPrev, err)
		}
		for k, r := range held {
			if shared.runs[k] != r {
				t.Fatalf("-exp %s trained the held run %+v again", c.id, k)
			}
		}
		if got != want {
			t.Fatalf("-exp %s after the rows above printed\n%s\nand alone\n%s", c.id, got, want)
		}
	}
}
