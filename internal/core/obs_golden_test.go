package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fed"
	"repro/internal/nn"
	"repro/internal/obs"
)

func goldenObsConfig() ExperimentConfig {
	cfg := DefaultExperiment(42)
	cfg.Specs = cfg.Specs[:3]
	cfg.TasksPerClient = 30
	cfg.Episodes = 4
	cfg.CommEvery = 2
	cfg.EpisodeStepCap = 5 * cfg.TasksPerClient
	cfg.Parallel = false
	return cfg
}

// flattenAgents concatenates every network parameter of every client, in
// client order — the full model state of a run.
func flattenAgents(t *testing.T, clients []*fed.Client) []float64 {
	t.Helper()
	var out []float64
	collect := func(m *nn.MLP) {
		for _, p := range m.Params() {
			out = append(out, p.Data.Data...)
		}
	}
	for _, c := range clients {
		collect(c.Agent.Actor)
		collect(c.Agent.Critic)
		if c.Agent.PublicCritic != nil {
			collect(c.Agent.PublicCritic)
		}
	}
	return out
}

// TestInstrumentedTrainingIsBitIdentical is the observability layer's core
// contract: installing an event sink (and all the always-on metric and timer
// updates that ride along) must not perturb training in any way. The same
// seeded run with and without a JSONL sink must produce bit-identical model
// weights and reward curves — instrumentation only reads state and never
// touches an RNG stream.
func TestInstrumentedTrainingIsBitIdentical(t *testing.T) {
	base, err := Train(AlgPFRLDM, goldenObsConfig())
	if err != nil {
		t.Fatal(err)
	}
	baseParams := flattenAgents(t, base.Clients)

	var events bytes.Buffer
	sink := obs.NewJSONL(&events)
	prev := obs.SetSink(sink)
	phaseStart := obs.GlobalTimers().Snapshot()
	instr, err := Train(AlgPFRLDM, goldenObsConfig())
	phases := obs.GlobalTimers().Snapshot().Sub(phaseStart)
	obs.SetSink(prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("event sink failed: %v", err)
	}
	instrParams := flattenAgents(t, instr.Clients)

	if len(baseParams) != len(instrParams) {
		t.Fatalf("parameter counts differ: %d vs %d", len(baseParams), len(instrParams))
	}
	for i := range baseParams {
		if baseParams[i] != instrParams[i] {
			t.Fatalf("weights diverge at parameter %d: %v vs %v (instrumentation must be invisible)",
				i, baseParams[i], instrParams[i])
		}
	}
	if len(base.MeanCurve) != len(instr.MeanCurve) {
		t.Fatalf("curve lengths differ: %d vs %d", len(base.MeanCurve), len(instr.MeanCurve))
	}
	for i := range base.MeanCurve {
		if base.MeanCurve[i] != instr.MeanCurve[i] {
			t.Fatalf("reward curves diverge at episode %d: %v vs %v",
				i, base.MeanCurve[i], instr.MeanCurve[i])
		}
	}

	// The instrumented run must actually have observed something.
	lines := strings.Split(strings.TrimSpace(events.String()), "\n")
	if len(lines) < 2 || lines[0] == "" {
		t.Fatalf("expected a non-trivial event stream, got %d lines", len(lines))
	}
	var sawEpisode, sawRound bool
	for _, l := range lines {
		if strings.Contains(l, `"type":"episode"`) {
			sawEpisode = true
		}
		if strings.Contains(l, `"type":"round"`) {
			sawRound = true
		}
	}
	if !sawEpisode || !sawRound {
		t.Fatalf("event stream missing episode/round events (episode=%v round=%v)", sawEpisode, sawRound)
	}
	if phases.Rollout <= 0 || phases.Update <= 0 ||
		phases.Aggregate <= 0 || phases.Total() <= 0 {
		t.Fatalf("phase timers not populated: %+v", phases)
	}
}
