package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/trace"
	"repro/internal/workload"
)

// printSpecSummary characterizes each client of a declarative workload spec
// (plus the combined mix) from a seeded sample.
func printSpecSummary(path string, n int, seed int64) error {
	spec, err := workload.LoadSpec(path)
	if err != nil {
		return err
	}
	comp, err := spec.Compile()
	if err != nil {
		return err
	}
	fmt.Printf("spec %q: %d client(s)\n", comp.Name, len(comp.Clients))
	t := trace.NewTable("client", "slo", "share", "tasks", "cpu-mean", "cpu-p95",
		"mem-mean", "mem-p95", "dur-mean", "dur-p95", "rate/slot", "peak-rate")
	addRow := func(name, slo string, share float64, c workload.Characterization) {
		t.AddRow(name, slo, fmt.Sprintf("%.2f", share), c.Tasks, c.CPUMean, c.CPUP95,
			c.MemMean, c.MemP95, c.DurMean, c.DurP95, c.RatePerSlot, c.RatePeak)
	}
	for i, cl := range comp.Clients {
		cn := int(cl.Fraction*float64(n) + 0.5)
		if cn < 1 {
			cn = 1
		}
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		c := workload.Characterize(cl.ID, cl.Model.Sample(rng, cn))
		addRow(cl.ID, cl.Model.SLO.String(), cl.Fraction, c)
	}
	if len(comp.Clients) > 1 {
		c := workload.Characterize("(combined)", comp.Sample(rand.New(rand.NewSource(seed)), n))
		addRow("(combined)", "-", 1, c)
	}
	fmt.Print(t.String())
	return nil
}

// runCalibrate replays a CSV trace and reports how faithfully a spec —
// given via -spec, or fitted from the trace itself — reproduces its
// marginals. When the spec is fitted, its JSON is printed so it can be
// saved and reused as a portable description of the trace.
func runCalibrate(tracePath, specPath string, seed int64) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	tasks, err := workload.ImportCSV(f)
	if err != nil {
		return fmt.Errorf("%s: %w", tracePath, err)
	}
	var spec *workload.Spec
	if specPath != "" {
		if spec, err = workload.LoadSpec(specPath); err != nil {
			return err
		}
	} else {
		name := strings.TrimSuffix(filepath.Base(tracePath), filepath.Ext(tracePath))
		if spec, err = workload.FitSpec(name, tasks); err != nil {
			return err
		}
		js, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("fitted spec:\n%s\n\n", js)
	}
	comp, err := spec.Compile()
	if err != nil {
		return err
	}
	sampled := comp.Sample(rand.New(rand.NewSource(seed)), len(tasks))
	rep := workload.Calibrate(tasks, sampled)
	fmt.Printf("calibration: %d trace tasks vs %d sampled tasks (KS = two-sample Kolmogorov-Smirnov distance)\n",
		rep.TraceTasks, rep.SampledTasks)
	headers := []string{"dim", "KS"}
	for _, q := range workload.CalibrationQuantiles {
		headers = append(headers, fmt.Sprintf("trace p%.0f", q*100), fmt.Sprintf("spec p%.0f", q*100))
	}
	t := trace.NewTable(headers...)
	for _, d := range rep.Dims {
		row := []interface{}{d.Name, fmt.Sprintf("%.3f", d.KS)}
		for i := range workload.CalibrationQuantiles {
			row = append(row, d.TraceQ[i], d.SampledQ[i])
		}
		t.AddRow(row...)
	}
	fmt.Print(t.String())
	return nil
}
