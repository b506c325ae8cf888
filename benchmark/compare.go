package main

import (
	"fmt"
	"io"
	"math"
)

// verdicts of -compare.
const (
	vOK         = "ok"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
)

// worseBy is how much worse than base the value v is, as a share of base, in
// the metric's bad direction (negative when it is better).
func worseBy(m metricDef, base, v float64) float64 {
	if base == 0 {
		if v == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (v - base) / math.Abs(base)
	if m.better == "higher" {
		d = -d
	}
	return d
}

// judge applies a metric's bound to two sets of runs of one workload.
//
// Exact metrics are pure functions of the seed and compare with ==. For the
// others the change's median may be worse than the baseline's by at most the
// bound; when either side's own spread is wider than the bound and the two
// sides' runs interleave, the bound cannot decide and the row is unresolved
// (unless every run of the change reads better than every run of the base).
func judge(m metricDef, base, change stat) string {
	if m.exact {
		if base.Value == change.Value || worseBy(m, base.Value, change.Value) <= m.bound {
			return vOK
		}
		return vRegressed
	}
	worse := worseBy(m, base.Value, change.Value)
	spread := math.Max(relSpread(base), relSpread(change))
	interleave := base.Min <= change.Max && change.Min <= base.Max
	allBetter := change.Max < base.Min
	if m.better == "higher" {
		allBetter = change.Min > base.Max
	}
	switch {
	case allBetter:
		return vOK
	case spread > m.bound && interleave:
		return vUnresolved
	case worse > m.bound:
		return vRegressed
	}
	return vOK
}

// relSpread is a side's run-to-run range as a share of its median.
func relSpread(a stat) float64 {
	if a.Value == 0 {
		return 0
	}
	return (a.Max - a.Min) / math.Abs(a.Value)
}

// compareFiles prints one row per (metric, workload) of two result files and
// reports whether any end-to-end row regressed.
func compareFiles(w io.Writer, basePath, changePath string) (regressed bool, err error) {
	var base, change resultFile
	if err := readJSON(basePath, &base); err != nil {
		return false, err
	}
	if err := readJSON(changePath, &change); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base   %s: commit %s, %s, nproc %d, seed %d, repeats %d\n", basePath,
		base.Header.GitCommit, base.Header.CPUModel, base.Header.NumCPU, base.Header.Seed, base.Header.Repeats)
	fmt.Fprintf(w, "change %s: commit %s, %s, nproc %d, seed %d, repeats %d\n", changePath,
		change.Header.GitCommit, change.Header.CPUModel, change.Header.NumCPU, change.Header.Seed, change.Header.Repeats)
	if base.Header.Seed != change.Header.Seed || base.Header.Smoke != change.Header.Smoke {
		return false, fmt.Errorf("the two files were measured with different seeds or scales")
	}
	changed := map[string]workloadResult{}
	for _, wr := range change.Workloads {
		changed[wr.Name] = wr
	}
	for _, b := range base.Workloads {
		c, ok := changed[b.Name]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", changePath, b.Name)
		}
		same := "equal: arithmetic untouched"
		if b.Digest != c.Digest {
			same = "DIFFER: results changed"
		}
		fmt.Fprintf(w, "\n%s  digests %s / %s %s\n", b.Name, b.Digest, c.Digest, same)
		fmt.Fprintf(w, "  %-36s %-7s %14s %27s %14s %27s %9s %7s  %s\n",
			"metric", "unit", "base median", "[min .. max] n", "change median", "[min .. max] n", "change", "bound", "verdict")
		row := func(m metricDef, bound, verdict string) {
			bm, cm := b.Metrics[m.name], c.Metrics[m.name]
			fmt.Fprintf(w, "  %-36s %-7s %14.6g %27s %14.6g %27s %+8.1f%% %7s  %s\n",
				m.name, m.unit, bm.Value, spreadText(bm), cm.Value, spreadText(cm),
				100*ratio(cm.Value-bm.Value, math.Abs(bm.Value)), bound, verdict)
		}
		both := func(m metricDef) bool {
			_, okB := b.Metrics[m.name]
			_, okC := c.Metrics[m.name]
			return okB && okC && m.appliesTo(b.Name)
		}
		for _, m := range endToEnd {
			if !both(m) {
				continue
			}
			verdict := judge(m, b.Metrics[m.name], c.Metrics[m.name])
			regressed = regressed || verdict == vRegressed
			bound := fmt.Sprintf("%.0f%%", 100*m.bound)
			if m.exact && m.bound == 0 {
				bound = "=="
			}
			row(m, bound, verdict)
		}
		// Per-layer metrics have no bound: they say where a change sits.
		for _, m := range perLayer {
			if !both(m) {
				continue
			}
			verdict := "info"
			if m.exact {
				verdict = "same"
				if b.Metrics[m.name].Value != c.Metrics[m.name].Value {
					verdict = "changed"
				}
			}
			row(m, "-", verdict)
		}
	}
	return regressed, nil
}

func spreadText(a stat) string {
	return fmt.Sprintf("[%.5g .. %.5g] n=%d", a.Min, a.Max, a.N)
}
