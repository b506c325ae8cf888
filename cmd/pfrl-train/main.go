// Command pfrl-train runs one federated (or independent) training
// configuration and reports the convergence curve and the final per-client
// evaluation metrics.
//
// Example:
//
//	pfrl-train -alg pfrl-dm -clients table3 -scale 4 -tasks 120 -episodes 40 -comm 5
//	pfrl-train -alg fedavg -clients table2 -csv curves.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pfrl-train: ")
	var algs []string
	for a := core.Algorithm(0); len(a.Spellings()) > 0; a++ {
		algs = append(algs, a.Spellings()[0])
	}
	var (
		algName  = flag.String("alg", "pfrl-dm", "algorithm: "+strings.Join(algs, " | "))
		clients  = flag.String("clients", "table3", "client setup: table2 | table3")
		scale    = flag.Int("scale", 4, "divide VM capacities by this factor (1 = paper scale)")
		tasks    = flag.Int("tasks", 120, "tasks sampled per client (paper: 3500)")
		episodes = flag.Int("episodes", 40, "training episodes per client (paper: 500)")
		comm     = flag.Int("comm", 5, "communication frequency in episodes (paper: 25)")
		k        = flag.Int("k", 0, "clients aggregated per round (0 = N/2 for PFRL-DM, N otherwise)")
		seed     = flag.Int64("seed", 1, "experiment seed")
		stepCap  = flag.Int("stepcap", 0, "episode step cap (0 = 5x tasks)")
		csvPath  = flag.String("csv", "", "write the mean reward curve to this CSV file")
		hybrid   = flag.Bool("hybrid", false, "also evaluate on the §5.3 hybrid test sets")
	)
	flag.Parse()

	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultExperiment(*seed)
	switch strings.ToLower(*clients) {
	case "table2":
		cfg.Specs = core.ScaleSpecs(core.Table2Specs(), *scale)
	case "table3":
		cfg.Specs = core.ScaleSpecs(core.Table3Specs(), *scale)
	default:
		log.Fatalf("unknown client setup %q", *clients)
	}
	cfg.TasksPerClient = *tasks
	cfg.Episodes = *episodes
	cfg.CommEvery = *comm
	cfg.K = *k
	cfg.EpisodeStepCap = *stepCap
	if cfg.EpisodeStepCap == 0 {
		cfg.EpisodeStepCap = 5 * *tasks
	}

	fmt.Printf("algorithm=%s clients=%s(x1/%d) tasks=%d episodes=%d comm=%d seed=%d\n\n",
		alg, *clients, *scale, *tasks, *episodes, *comm, *seed)

	res, err := core.Train(alg, cfg)
	if err != nil {
		log.Fatal(err)
	}

	t := trace.NewTable("episode", "mean reward")
	stride := len(res.MeanCurve) / 20
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(res.MeanCurve); i += stride {
		t.AddRow(i+1, res.MeanCurve[i])
	}
	fmt.Print(t.String())

	if res.Federation != nil {
		fmt.Printf("\nrounds=%d payload/client/round=%d scalars\n",
			res.Federation.Rounds, res.Federation.Transport.PayloadSize(res.Clients[0]))
	}

	fmt.Println("\nPer-client greedy evaluation on held-out test tasks:")
	et := trace.NewTable("client", "dataset", "resp", "makespan", "util", "loadbal", "done")
	for i, c := range res.Clients {
		m, err := c.Evaluate(res.Data[i].Test, nil)
		if err != nil {
			log.Fatal(err)
		}
		et.AddRow(c.Name, res.Data[i].Spec.Dataset.String(), m.AvgResponse, m.Makespan,
			m.AvgUtil, m.AvgLoadBal, fmt.Sprintf("%d/%d", m.Completed, m.Total))
	}
	fmt.Print(et.String())

	if *hybrid {
		fmt.Println("\nHybrid-workload evaluation (20% native / 80% foreign):")
		he, err := core.EvalHybrid(res, cfg, 0.2, nil)
		if err != nil {
			log.Fatal(err)
		}
		ht := trace.NewTable("client", "resp", "makespan", "util", "loadbal", "done")
		for i := range he.Clients {
			ht.AddRow(he.Clients[i], he.AvgResponse[i], he.Makespan[i], he.AvgUtil[i], he.AvgLoadBal[i],
				fmt.Sprintf("%d/%d", he.Completed[i], he.Total[i]))
		}
		fmt.Print(ht.String())
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		series := []trace.Series{trace.NewSeries(alg.String()+"-mean", res.MeanCurve)}
		for _, c := range res.Clients {
			series = append(series, trace.NewSeries(c.Name, c.Rewards))
		}
		if err := trace.WriteCSV(f, series...); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
}
