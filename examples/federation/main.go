// Federation: run PFRL-DM end to end on four heterogeneous cloud providers
// (the paper's Table-2 setup, scaled down) and watch the pieces work — the
// convergence curve, each client's adaptive α, and the attention weights
// the server produced in the final round.
//
//	go run ./examples/federation
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)

	cfg := core.DefaultExperiment(7)
	cfg.Specs = core.ScaleSpecs(core.Table2Specs(), 4)
	cfg.TasksPerClient = 80
	cfg.Episodes = 24
	cfg.CommEvery = 4
	cfg.EpisodeStepCap = 400
	cfg.K = 2 // K = N/2, as in the paper

	fmt.Printf("training PFRL-DM: %d clients, %d episodes, aggregation every %d episodes, K=%d\n\n",
		len(cfg.Specs), cfg.Episodes, cfg.CommEvery, cfg.K)
	res, err := core.Train(core.AlgPFRLDM, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("mean reward across clients (moving average, window 3):")
	smoothed := stats.MovingAverage(res.MeanCurve, 3)
	t := trace.NewTable("episode", "mean reward")
	for i := 0; i < len(smoothed); i += 2 {
		t.AddRow(i+1, smoothed[i])
	}
	fmt.Print(t.String())

	fmt.Println("\nfinal adaptive α per client (weight of the LOCAL critic, Eq. 15):")
	at := trace.NewTable("client", "dataset", "alpha", "local critic loss", "public critic loss")
	for i, c := range res.Clients {
		d := c.Agent
		at.AddRow(c.Name, res.Data[i].Spec.Dataset.String(), d.Alpha, d.LastLocalLoss, d.LastPublicLoss)
	}
	fmt.Print(at.String())

	if attn, ok := res.Federation.Agg.(*fed.Attention); ok && attn.LastWeights != nil {
		fmt.Println("\nattention weights of the final aggregation round (participants only):")
		labels := make([]string, len(attn.LastWeights))
		for i := range labels {
			labels[i] = fmt.Sprintf("P%d", i+1)
		}
		if err := trace.Heatmap(os.Stdout, labels, attn.LastWeights); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\nonly the public critic travels:")
	fmt.Printf("  payload per client per round: %d scalars (full model would be ~3x)\n",
		res.Federation.Transport.PayloadSize(res.Clients[0]))
}
