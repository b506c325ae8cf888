package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var b benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and metrics.go in step:
// same names, units, directions and bounds, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads = %s, want %s", got, want)
	}

	e2e := contractEndToEnd()
	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("end_to_end has %d metrics, metrics.go gates %d", len(b.EndToEnd), len(e2e))
	}
	seen := map[string]bool{}
	hasSetup := false
	for i, m := range b.EndToEnd {
		d := e2e[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, metrics.go has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if d.on != nil {
			t.Errorf("%s is gated but not measured on every workload", d.name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		seen[m.Name] = true
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	layers := contractPerLayer()
	if len(b.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("per_layer has %d metrics, metrics.go declares %d (limit 128)", len(b.PerLayer), len(layers))
	}
	for i, m := range b.PerLayer {
		d := layers[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, metrics.go has %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", d.name)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s: unit %q", d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: better %q", d.name, d.better)
			}
			if d.moves != "" && !isEndToEnd(d.moves) {
				t.Errorf("%s moves %q, which is not an end-to-end metric", d.name, d.moves)
			}
		}
	}
	if len(endToEnd) != 12 {
		t.Errorf("%d end-to-end metrics, the issue defines 12", len(endToEnd))
	}
}

// TestSmoke runs every workload at smoke scale, traced and untraced, twice,
// and checks what the runs emit.
func TestSmoke(t *testing.T) {
	for _, w := range allWorkloads() {
		w := w
		t.Run(w.name(), func(t *testing.T) {
			out := t.TempDir()
			opts := runOptions{workload: w.name(), seed: 3, seconds: 0.2, smoke: true, outDir: out}
			plain, err := runWorkload(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.traced = true
			traced, err := runWorkload(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []*runResult{plain, traced} {
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct %v, failed %d of %d: %v", res.Traced, res.Correct, res.Failed, res.Attempted, res.Why)
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("two smoke runs of one seed: digests %s and %s", plain.Digest, traced.Digest)
			}
			if plain.Passes < 2 {
				t.Errorf("untraced run held %d passes, want >= 2 for the repeat check", plain.Passes)
			}

			// Every metric that applies to the workload is there once (the
			// map makes twice impossible), finite, in its declared unit.
			for _, m := range endToEnd {
				checkMetric(t, plain, m, w.name())
			}
			for _, list := range [][]metricDef{endToEnd, perLayer} {
				for _, m := range list {
					checkMetric(t, traced, m, w.name())
				}
			}
			for name := range traced.Metrics {
				if _, ok := findMetric(name); !ok {
					t.Errorf("emitted metric %s is not declared", name)
				}
			}

			// The summary lines carry exactly what BENCHMARK.json lists.
			b := loadBenchmarkJSON(t)
			var want []string
			for _, m := range b.EndToEnd {
				want = append(want, m.Name)
			}
			checkContractLine(t, plain, want)
			want = want[:0]
			for _, m := range b.PerLayer {
				want = append(want, m.Name)
			}
			checkContractLine(t, traced, want)

			// The span file parses; parents exist and contain their children.
			spans, err := readSpans(filepath.Join(out, "trace_"+w.name()+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 || float64(len(spans)) != traced.Metrics["trace.spans"].Value {
				t.Errorf("span file has %d spans, trace.spans says %v", len(spans), traced.Metrics["trace.spans"].Value)
			}
			if err := checkSpans(spans); err != nil {
				t.Error(err)
			}
			if cov := traced.Metrics["trace.coverage_pct"].Value; w.serialised() && cov < 95 {
				t.Errorf("trace.coverage_pct = %.1f on a serialised workload", cov)
			}
			var out2 bytes.Buffer
			printRun(&out2, traced)
			for _, m := range perLayer {
				if m.appliesTo(w.name()) && !strings.Contains(out2.String(), "  "+m.name+" ") {
					t.Errorf("printRun does not list %s", m.name)
				}
			}
		})
	}
}

func checkMetric(t *testing.T, res *runResult, m metricDef, workload string) {
	t.Helper()
	s, ok := res.Metrics[m.name]
	switch {
	case !m.appliesTo(workload):
		if ok {
			t.Errorf("traced=%v: %s emitted on %s, where it does not apply", res.Traced, m.name, workload)
		}
	case !ok:
		t.Errorf("traced=%v: %s not emitted", res.Traced, m.name)
	case !finite(s.Value, s.Min, s.Max) || s.N < 1:
		t.Errorf("traced=%v: %s = %+v", res.Traced, m.name, s)
	case s.Unit != m.unit:
		t.Errorf("traced=%v: %s has unit %q, declared %q", res.Traced, m.name, s.Unit, m.unit)
	}
}

func checkContractLine(t *testing.T, res *runResult, want []string) {
	t.Helper()
	line, err := contractLine(res)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || *got.Attempted < 1 {
		t.Errorf("summary line lacks a key: %s", line)
	}
	if len(got.Metrics) != len(want) {
		t.Errorf("summary line has %d metrics, BENCHMARK.json lists %d", len(got.Metrics), len(want))
	}
	for _, name := range want {
		m, ok := got.Metrics[name]
		if !ok || m.Value == nil || math.IsNaN(*m.Value) || m.Unit == "" {
			t.Errorf("summary line: metric %s missing or malformed", name)
		}
		if !res.Traced && ok && m.Value != nil && *m.Value == 0 {
			t.Errorf("end-to-end metric %s is 0", name)
		}
	}
}

func TestSpanGeometry(t *testing.T) {
	if got := unionLen([]interval{{0, 10}, {5, 15}, {20, 30}, {22, 25}, {40, 40}}); got != 25 {
		t.Errorf("unionLen = %d, want 25", got)
	}
	spans := []span{
		{ID: 1, Name: "run", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 0, EndNs: 60},
		{ID: 3, Parent: 1, Name: "b", StartNs: 50, EndNs: 90},
		{ID: 4, Parent: 2, Name: "c", StartNs: 10, EndNs: 20},
	}
	tree := buildTree(spans)
	if got := tree.selfNs(0); got != 10 {
		t.Errorf("root self = %d, want 10", got)
	}
	if got := tree.selfNs(1); got != 50 {
		t.Errorf("a self = %d, want 50", got)
	}
	if got := tree.childCoverage(0); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("root coverage = %v, want 0.9", got)
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	spans[3].EndNs = 70 // escapes its parent
	if err := checkSpans(spans); err == nil {
		t.Error("checkSpans accepted a child that outlives its parent")
	}
	spans[3] = span{ID: 4, Parent: 9, Name: "c", StartNs: 10, EndNs: 20}
	if err := checkSpans(spans); err == nil {
		t.Error("checkSpans accepted an unknown parent")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "wall_s", better: "lower", bound: 0.10}
	higher := metricDef{name: "env_steps_per_s", better: "higher", bound: 0.10}
	exact := metricDef{name: "wire_bytes_per_round", better: "lower", exact: true}
	a := func(vs ...float64) stat { return statOf("s", vs) }
	for _, c := range []struct {
		what         string
		m            metricDef
		base, change stat
		want         string
	}{
		{"within the bound", lower, a(10, 10.1, 10.2), a(10.3, 10.4, 10.5), vOK},
		{"beyond the bound", lower, a(10, 10.1, 10.2), a(11.5, 11.6, 11.7), vRegressed},
		{"noisy and interleaved", lower, a(9, 10, 11.5), a(9.5, 10.4, 11), vUnresolved},
		{"noisy but every run better", lower, a(10, 11, 12), a(7, 8, 9), vOK},
		{"higher is better, dropped", higher, a(100, 101, 102), a(80, 81, 82), vRegressed},
		{"higher is better, rose", higher, a(100, 101, 102), a(120, 121, 122), vOK},
		{"exact and equal", exact, a(5, 5, 5), a(5, 5, 5), vOK},
		{"exact and larger", exact, a(5, 5, 5), a(6, 6, 6), vRegressed},
	} {
		if got := judge(c.m, c.base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.what, got, c.want)
		}
	}
}

// TestCompareFiles drives -compare end to end on two result files.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, wall float64) string {
		f := resultFile{Header: newHeader(1, 3, 15, false), Workloads: []workloadResult{{
			Name: wStream, Digest: "abc", Correct: true, Attempted: 10,
			Metrics: map[string]stat{
				"wall_s":             statOf("s", []float64{wall * 0.99, wall, wall * 1.01}),
				"avg_response_slots": statOf("slots", []float64{25, 25, 25}),
				"nn.mlp_infer_ns":    statOf("ns", []float64{6000}),
			},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := mk("a.json", 2.8), mk("b.json", 2.85), mk("c.json", 3.6)
	var out bytes.Buffer
	if code := run([]string{"-compare", base, same}, &out, os.Stderr); code != 0 {
		t.Errorf("A/A compare exited %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), vRegressed) || !strings.Contains(out.String(), "arithmetic untouched") {
		t.Errorf("A/A compare output:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", base, slow}, &out, os.Stderr); code != 1 {
		t.Errorf("compare against a 29 %% slower run exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), vRegressed) {
		t.Errorf("slow compare output:\n%s", out.String())
	}
}
