// Command workload-stats prints the workload characterizations behind the
// paper's Table 1 and Figures 2–5: machine specifications, CPU/memory
// request distributions, hourly arrival rates, and execution-time CDFs for
// the ten modelled datasets.
//
// Usage:
//
//	workload-stats -table1
//	workload-stats -fig 2 [-n 3500] [-seed 1]
//	workload-stats -summary
//	workload-stats -spec mix.json
//	workload-stats -calibrate trace.csv [-spec mix.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("workload-stats: ")
	var (
		table1    = flag.Bool("table1", false, "print Table 1 (machine specifications)")
		fig       = flag.Int("fig", 0, "print the data behind Figure 2 (CPU), 3 (memory), 4 (arrival rates) or 5 (runtime CDF)")
		summary   = flag.Bool("summary", false, "print a per-dataset summary characterization")
		n         = flag.Int("n", 3500, "tasks sampled per dataset (the paper samples 3500)")
		seed      = flag.Int64("seed", 1, "sampling seed")
		bins      = flag.Int("bins", 10, "histogram bins for figures 2-3")
		specFile  = flag.String("spec", "", "characterize this declarative workload spec (also the reference for -calibrate)")
		calibrate = flag.String("calibrate", "", "compare this CSV trace against -spec (or a spec fitted from the trace)")
	)
	flag.Parse()

	var err error
	switch {
	case *table1:
		printTable1()
	case *fig >= 2 && *fig <= 5:
		printFigure(*fig, *n, *seed, *bins)
	case *summary:
		printSummary(*n, *seed)
	case *calibrate != "":
		err = runCalibrate(*calibrate, *specFile, *seed)
	case *specFile != "":
		err = printSpecSummary(*specFile, *n, *seed)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func printTable1() {
	t := trace.NewTable("Dataset", "#CPUs", "Mem (GiB)", "#Nodes", "Platform")
	for _, row := range workload.Table1() {
		t.AddRow(row.Dataset, row.CPUs, row.MemGiB, row.Nodes, row.Platform)
	}
	fmt.Print(t.String())
}

func printFigure(fig, n int, seed int64, bins int) {
	for _, id := range workload.AllDatasets() {
		rng := rand.New(rand.NewSource(seed + int64(id)))
		tasks := workload.SampleDataset(id, rng, n)
		fmt.Printf("# %s\n", id)
		switch fig {
		case 2, 3:
			sel := func(t workload.Task) float64 { return float64(t.CPU) }
			unit := "vCPUs"
			if fig == 3 {
				sel = func(t workload.Task) float64 { return t.Mem }
				unit = "GiB"
			}
			edges, counts := workload.ResourceHistogram(tasks, bins, sel)
			t := trace.NewTable("<= "+unit, "tasks")
			for i := range edges {
				t.AddRow(edges[i], counts[i])
			}
			fmt.Print(t.String())
		case 4:
			rates := workload.HourlyArrivalRates(tasks, 6)
			t := trace.NewTable("hour", "tasks/slot")
			for i, r := range rates {
				t.AddRow(i, r)
			}
			fmt.Print(t.String())
		case 5:
			xs, cdf := workload.ExecTimeCDF(tasks)
			t := trace.NewTable("duration", "CDF")
			stride := len(xs) / 20
			if stride < 1 {
				stride = 1
			}
			for i := 0; i < len(xs); i += stride {
				t.AddRow(xs[i], cdf[i])
			}
			t.AddRow(xs[len(xs)-1], cdf[len(cdf)-1])
			fmt.Print(t.String())
		}
		fmt.Println()
	}
}

func printSummary(n int, seed int64) {
	t := trace.NewTable("Dataset", "tasks", "cpu-mean", "cpu-p95", "mem-mean", "mem-p95",
		"dur-mean", "dur-p95", "rate/slot", "peak-rate")
	for _, id := range workload.AllDatasets() {
		rng := rand.New(rand.NewSource(seed + int64(id)))
		c := workload.Characterize(id.String(), workload.SampleDataset(id, rng, n))
		t.AddRow(c.Dataset, c.Tasks, c.CPUMean, c.CPUP95, c.MemMean, c.MemP95,
			c.DurMean, c.DurP95, c.RatePerSlot, c.RatePeak)
	}
	fmt.Print(t.String())
}
