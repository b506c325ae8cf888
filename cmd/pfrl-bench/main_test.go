package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
