package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// stat is one metric over a set of samples — the passes of a run, or the
// runs of a suite: their median, the extremes, and the samples themselves.
type stat struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func statOf(unit string, vs []float64) stat {
	lo, hi := minMax(vs)
	return stat{Value: median(vs), Unit: unit, Min: lo, Max: hi, N: len(vs), Values: vs}
}

// runResult is everything one run (one process, one workload, one seed)
// measured. The last line of its output is the four-key summary the driver
// reads; -detail writes the whole of it.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Smoke     bool               `json:"smoke"`
	Passes    int                `json:"passes"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Why       []string           `json:"why,omitempty"`
	Digest    string             `json:"digest"`
	Counts    map[string]float64 `json:"counts"`
	Metrics   map[string]stat    `json:"metrics"`
	Layers    []layerRow         `json:"layers,omitempty"`
}

type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	outDir   string
}

// tracedShare is the part of a traced run's -seconds spent on passes; the
// rest is left for the probes, which cost about the same whatever the
// workload.
const tracedShare = 0.6

// runWorkload measures one workload in this process: a warm-up, then passes
// through the product entry point (each paired with a traced re-drive when
// opts.traced) until opts.seconds have gone by, then the probes.
func runWorkload(opts runOptions) (*runResult, error) {
	w, ok := findWorkload(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	sc := fullScale
	if opts.smoke {
		sc = smokeScale
	}
	if err := w.warm(opts.seed); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	budget := time.Duration(opts.seconds * float64(time.Second))
	minPasses := 2 // two product passes of one seed must agree
	if opts.traced {
		budget = time.Duration(float64(budget) * tracedShare)
		minPasses = 1 // the traced pass is the second opinion
	}
	var product, traced []*unit
	var spans []span
	var coverage []float64
	start := time.Now()
	for {
		// Every pass starts from a collected heap, so one pass's garbage is
		// not collected on the next one's clock.
		runtime.GC()
		u, err := w.product(opts.seed, sc)
		if err != nil {
			return nil, fmt.Errorf("product pass: %w", err)
		}
		product = append(product, u)
		if opts.traced {
			runtime.GC()
			tr := newTracer(w.name())
			tu, err := w.traced(opts.seed, sc, tr)
			if err != nil {
				return nil, fmt.Errorf("traced pass: %w", err)
			}
			traced = append(traced, tu)
			spans = tr.snapshot()
			coverage = append(coverage, 100*buildTree(spans).childCoverage(0))
		}
		elapsed := time.Since(start)
		perPass := elapsed / time.Duration(len(product))
		if len(product) >= minPasses && elapsed+perPass/2 >= budget {
			break
		}
	}

	res := &runResult{
		Workload: w.name(), Seed: opts.seed, Traced: opts.traced, Smoke: opts.smoke,
		Passes: len(product), Correct: true,
		Digest: strconv.FormatUint(product[0].digest, 16), Counts: product[0].counts,
		Metrics: map[string]stat{},
	}
	fault := func(format string, args ...any) {
		res.Correct = false
		res.Why = append(res.Why, fmt.Sprintf(format, args...))
	}
	for i, u := range product {
		res.Attempted += u.ops
		res.Failed += u.failed
		res.Why = append(res.Why, u.why...)
		if u.digest != product[0].digest {
			res.Failed += u.ops - u.failed
			fault("pass %d digest %x differs from pass 0 digest %x at the same seed", i, u.digest, product[0].digest)
		}
	}
	for i, u := range traced {
		res.Why = append(res.Why, u.why...)
		if u.failed > 0 {
			fault("traced pass %d had %d failed operations", i, u.failed)
		}
		if u.digest != product[0].digest {
			fault("traced pass %d digest %x differs from the product's %x", i, u.digest, product[0].digest)
		}
		for k, want := range product[0].counts {
			if got := u.counts[k]; got != want {
				fault("traced pass %d count %s = %v, the product's %v", i, k, got, want)
			}
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	// End-to-end metrics: tracing off, median over the product passes.
	collect := func(f func(*unit) float64) []float64 {
		out := make([]float64, len(product))
		for i, u := range product {
			out[i] = f(u)
		}
		return out
	}
	put := func(name string, vs []float64) {
		m, ok := findMetric(name)
		if !ok {
			panic("benchmark: metric " + name + " is not declared in metrics.go")
		}
		res.Metrics[name] = statOf(m.unit, vs)
	}
	put("setup_s", collect(func(u *unit) float64 { return seconds(u.setup) }))
	put("wall_s", collect(func(u *unit) float64 { return seconds(u.wall) }))
	put("cpu_s", collect(func(u *unit) float64 { return seconds(u.cpu) }))
	put("env_steps_per_s", collect(func(u *unit) float64 { return ratio(float64(u.steps), seconds(u.wall)) }))
	put("alloc_mb", collect(func(u *unit) float64 { return u.allocMB }))
	put("fail_share", []float64{ratio(float64(res.Failed), float64(res.Attempted))})
	// putVals adds the metrics the passes report that are not there yet.
	putVals := func(units []*unit) {
		byName := map[string][]float64{}
		for _, u := range units {
			for name, v := range u.vals {
				byName[name] = append(byName[name], v)
			}
		}
		for name, vs := range byName {
			_, declared := findMetric(name)
			if _, dup := res.Metrics[name]; declared && !dup {
				put(name, vs)
			}
		}
	}
	putVals(product)
	if opts.traced {
		// Per-layer metrics come from the traced passes; values both drivers
		// report (the exact counts) are already there from the product.
		putVals(traced)
		probes := map[string]float64{}
		if err := runProbes(probes, opts.seed, sc); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for name, v := range probes {
			put(name, []float64{v})
		}
		if w.name() == wFig15 {
			cfg := fig15Workload().config(opts.seed, sc)
			pct, events, err := sinkOverhead(cfg, time.Duration(median(collect(func(u *unit) float64 {
				return u.vals["leg_s.pfrldm"]
			}))*float64(time.Second)))
			if err != nil {
				return nil, fmt.Errorf("obs paired run: %w", err)
			}
			put("obs.sink_overhead_pct", []float64{pct})
			put("obs.events_emitted", []float64{events})
		}
		tracedWall := make([]float64, len(traced))
		for i, u := range traced {
			tracedWall[i] = seconds(u.wall)
		}
		base := res.Metrics["wall_s"].Value
		put("trace.overhead_pct", []float64{100 * (median(tracedWall) - base) / base})
		put("trace.spans", []float64{float64(len(spans))})
		put("trace.coverage_pct", coverage)
		if err := checkSpans(spans); err != nil {
			fault("trace: %v", err)
		}
		if w.serialised() && median(coverage) < 95 {
			fault("failed attribution: the root span's children cover %.1f %% of it, want >= 95", median(coverage))
		}
		res.Layers = rollUp(spans)
		if err := writeSpans(filepath.Join(opts.outDir, "trace_"+w.name()+".jsonl"), spans); err != nil {
			return nil, err
		}
	}
	// Read last: the high-water mark covers everything above.
	put("peak_rss_mb", []float64{readUsage().maxRSS})

	for name, s := range res.Metrics {
		if !finite(s.Value, s.Min, s.Max) {
			fault("metric %s is not finite", name)
		}
	}
	return res, nil
}

// contractLine is the summary the driver reads from the last line of a run:
// with tracing off every end_to_end metric of BENCHMARK.json, with tracing
// on every per_layer metric. A per-layer metric of a layer the workload does
// not use reads 0.
func contractLine(res *runResult) ([]byte, error) {
	defs := contractEndToEnd()
	if res.Traced {
		defs = contractPerLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range defs {
		metrics[m.name] = value{Value: res.Metrics[m.name].Value, Unit: m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
}

// printRun writes a run's metrics, one per line, by name with the unit.
func printRun(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  passes %d  digest %s  correct %v  failed %d/%d\n",
		res.Workload, res.Seed, res.Traced, res.Passes, res.Digest, res.Correct, res.Failed, res.Attempted)
	for _, why := range res.Why {
		fmt.Fprintf(w, "  ! %s\n", why)
	}
	counts := make([]string, 0, len(res.Counts))
	for k := range res.Counts {
		counts = append(counts, k)
	}
	sort.Strings(counts)
	for _, k := range counts {
		fmt.Fprintf(w, "  count %-28s %.0f\n", k, res.Counts[k])
	}
	printMetrics(w, res.Workload, res.Metrics)
	if len(res.Layers) > 0 {
		fmt.Fprintf(w, "  trace roll-up (last traced pass): span name, count, total s, self s\n")
		for _, r := range res.Layers {
			fmt.Fprintf(w, "    %-24s %7d %10.4f %10.4f\n", r.Name, r.Count, r.TotalS, r.SelfS)
		}
	}
}

// printMetrics lists the end-to-end metrics and then the per-layer ones that
// were measured, in declaration order.
func printMetrics(w io.Writer, workload string, metrics map[string]stat) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			s, ok := metrics[m.name]
			if !ok || !m.appliesTo(workload) {
				continue
			}
			moves := ""
			if m.moves != "" {
				moves = "  -> " + m.moves
			}
			fmt.Fprintf(w, "  %-36s %16.6g %-7s [%.6g .. %.6g] n=%d%s\n", m.name, s.Value, m.unit, s.Min, s.Max, s.N, moves)
		}
	}
}
