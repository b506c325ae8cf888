package core

import (
	"fmt"
	"testing"

	"repro/internal/fedcore"
	"repro/internal/obs"
)

// Tiny-config smoke tests for the experiment runners that were previously
// exercised only through the CLI. Each runner is checked for curve lengths
// and for bit-identical results across two identical runs — the same
// determinism contract the training path guarantees.

func sameCurve(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: curve lengths %d vs %d across identical runs", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: episode %d diverged across identical runs: %v vs %v", name, i, a[i], b[i])
		}
	}
}

func TestRunAblationSmoke(t *testing.T) {
	cfg := tinyConfig(6)
	for _, variant := range []AblationVariant{AblationFull, AblationNoDualCritic, AblationNoAttention, AblationFixedAlpha} {
		a, err := RunAblation(cfg, variant, 0)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if len(a) != cfg.Episodes {
			t.Fatalf("%s: curve length %d, want %d", variant, len(a), cfg.Episodes)
		}
		b, err := RunAblation(cfg, variant, 0)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		sameCurve(t, string(variant), a, b)
	}
}

// TestRunAblationIsTrain pins the ablation runner to the one federation
// assembly: its unmodified variant is Train(AlgPFRLDM), bit for bit, and it
// inherits the federation options Train does — under a lossy delta codec it
// moves Train's wire bytes (a second, hand-assembled federation ran identity
// there; at this size the reward curve alone cannot tell, no sampled action
// flips). A communication frequency that does not divide the episode count
// still yields one curve point per episode, the same on both runs.
func TestRunAblationIsTrain(t *testing.T) {
	wire := obs.DefaultRegistry().Counter("pfrl_fed_wire_upload_bytes_total", "")
	for _, c := range []struct {
		codec fedcore.CodecConfig
		comm  int
	}{{fedcore.CodecConfig{}, 2}, {fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true}, 2}, {fedcore.CodecConfig{}, 3}} {
		cfg := tinyConfig(6)
		cfg.Codec, cfg.CommEvery = c.codec, c.comm
		r, err := Train(AlgPFRLDM, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.MeanCurve) != cfg.Episodes {
			t.Fatalf("%+v: curve length %d, want %d", c, len(r.MeanCurve), cfg.Episodes)
		}
		before := wire.Value()
		curve, err := RunAblation(cfg, AblationFull, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameCurve(t, fmt.Sprintf("ablation vs train, %+v", c), r.MeanCurve, curve)
		if got := int64(wire.Value() - before); got != r.Comm.UploadBytes {
			t.Fatalf("%+v: ablation uploaded %d wire bytes, Train %d", c, got, r.Comm.UploadBytes)
		}
	}
}

func TestRunNewAgentSmoke(t *testing.T) {
	cfg := tinyConfig(7)
	const warmup, join = 2, 2
	run := func() *NewAgentResult {
		r, err := RunNewAgent(cfg, warmup, join)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if len(a.Joined) != join {
		t.Fatalf("joined curve length %d, want %d", len(a.Joined), join)
	}
	if len(a.Fresh) != join {
		t.Fatalf("fresh curve length %d, want %d", len(a.Fresh), join)
	}
	sameCurve(t, "new-agent joined", a.Joined, b.Joined)
	sameCurve(t, "new-agent fresh", a.Fresh, b.Fresh)
}
