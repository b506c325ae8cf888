// Command benchmark is the repository's end-to-end benchmark with layer
// attribution. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./benchmark                          every workload, in child processes
//	go run ./benchmark -workload swarm_104_async -seed 2 -seconds 15 -trace 1
//	go run ./benchmark -compare a.json b.json   apply the regression bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process ("+strings.Join(workloadNames(), ", ")+"); empty runs them all in child processes")
	seed := fs.Int64("seed", 1, "workload seed: the only input")
	secs := fs.Float64("seconds", 15, "how long one run measures")
	trace := fs.Int("trace", 0, "with -workload: 1 adds the traced re-drive and the probes and reports per-layer metrics")
	traced := fs.Bool("traced", true, "without -workload: also make one traced run per workload")
	repeats := fs.Int("repeats", 3, "without -workload: untraced runs per workload")
	smoke := fs.Bool("smoke", false, "sub-second workload sizes (the self-test's)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json and trace_<workload>.jsonl")
	detail := fs.String("detail", "", "with -workload: also write the run's full record to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0

	case *workload != "":
		res, err := runWorkload(runOptions{
			workload: *workload, seed: *seed, seconds: *secs, traced: *trace != 0, smoke: *smoke, outDir: *outDir,
		})
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if *detail != "" {
			if err := writeJSON(*detail, res); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		printRun(stdout, res)
		line, err := contractLine(res)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0

	default:
		ok, err := runSuite(stdout, stderr, suiteOptions{
			seed: *seed, seconds: *secs, repeats: *repeats, traced: *traced, smoke: *smoke, outDir: *outDir,
		})
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.name())
	}
	return names
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

type suiteOptions struct {
	seed    int64
	seconds float64
	repeats int
	traced  bool
	smoke   bool
	outDir  string
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string             `json:"name"`
	Digest    string             `json:"digest"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Why       []string           `json:"why,omitempty"`
	Counts    map[string]float64 `json:"counts"`
	Metrics   map[string]stat    `json:"metrics"`
	Layers    []layerRow         `json:"layers,omitempty"`
}

// resultFile is what the suite writes and -compare reads.
type resultFile struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

// runSuite runs every workload, each run in a fresh child process of this
// same binary, so the tensor pool, the global phase timers, the aggregation
// worker setting and the RSS high-water mark never leak from one run into
// the next. It prints every metric and writes result.json.
func runSuite(stdout, stderr io.Writer, opts suiteOptions) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return false, err
	}
	file := resultFile{Header: newHeader(opts.seed, opts.repeats, int(opts.seconds), opts.smoke)}
	h := file.Header
	fmt.Fprintf(stdout, "%s %s/%s  cpu %q  nproc %d  GOMAXPROCS %d  GOGC %s  commit %s  seed %d  repeats %d\n",
		h.GoVersion, h.GOOS, h.GOARCH, h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GOGC, h.GitCommit, h.Seed, h.Repeats)

	allOK := true
	for _, w := range allWorkloads() {
		var runs []*runResult
		child := func(traced bool) error {
			detail := filepath.Join(opts.outDir, "run.json")
			trace := "0"
			if traced {
				trace = "1"
			}
			args := []string{"-workload", w.name(), "-seed", fmt.Sprint(opts.seed), "-seconds", fmt.Sprint(opts.seconds),
				"-trace", trace, "-out", opts.outDir, "-detail", detail}
			if opts.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (traced %v): %w", w.name(), traced, err)
			}
			var res runResult
			if err := readJSON(detail, &res); err != nil {
				return err
			}
			runs = append(runs, &res)
			return os.Remove(detail)
		}
		for r := 0; r < opts.repeats; r++ {
			if err := child(false); err != nil {
				return false, err
			}
		}
		if opts.traced {
			if err := child(true); err != nil {
				return false, err
			}
		}
		wr := mergeRuns(w.name(), runs)
		allOK = allOK && wr.Correct
		file.Workloads = append(file.Workloads, wr)

		fmt.Fprintf(stdout, "\n%s  digest %s  correct %v  failed %d/%d\n", wr.Name, wr.Digest, wr.Correct, wr.Failed, wr.Attempted)
		for _, why := range wr.Why {
			fmt.Fprintf(stdout, "  ! %s\n", why)
		}
		printMetrics(stdout, wr.Name, wr.Metrics)
	}
	path := filepath.Join(opts.outDir, "result.json")
	if err := writeJSON(path, file); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", path)
	return allOK, nil
}

// mergeRuns folds a workload's runs into one result: end-to-end metrics from
// the untraced runs only (tracing off), everything else from whichever runs
// report it.
func mergeRuns(name string, runs []*runResult) workloadResult {
	wr := workloadResult{Name: name, Correct: true, Metrics: map[string]stat{}}
	values := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if wr.Digest == "" {
			wr.Digest, wr.Counts = r.Digest, r.Counts
		}
		if r.Digest != wr.Digest {
			wr.Correct = false
			wr.Why = append(wr.Why, fmt.Sprintf("run digest %s differs from %s at the same seed", r.Digest, wr.Digest))
		}
		wr.Correct = wr.Correct && r.Correct
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Why = append(wr.Why, r.Why...)
		if r.Traced {
			wr.Layers = r.Layers
		}
		for m, s := range r.Metrics {
			if r.Traced && len(runs) > 1 && isEndToEnd(m) {
				continue // end-to-end metrics come from the runs with tracing off
			}
			values[m] = append(values[m], s.Value)
			units[m] = s.Unit
		}
	}
	for m, vs := range values {
		wr.Metrics[m] = statOf(units[m], vs)
	}
	return wr
}
