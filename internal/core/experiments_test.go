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

func TestRunCommFrequencySmoke(t *testing.T) {
	cfg := tinyConfig(5)
	freqs := []int{1, 2}
	run := func() map[int][]float64 {
		out, err := RunCommFrequency(cfg, freqs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(freqs) {
		t.Fatalf("got %d curves, want %d", len(a), len(freqs))
	}
	for _, fr := range freqs {
		if len(a[fr]) != cfg.Episodes {
			t.Fatalf("freq %d: curve length %d, want %d", fr, len(a[fr]), cfg.Episodes)
		}
		sameCurve(t, "comm-frequency", a[fr], b[fr])
	}
	if sameLen := len(a[1]) == len(a[2]); !sameLen {
		t.Fatal("frequencies should train the same episode count")
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
// flips).
func TestRunAblationIsTrain(t *testing.T) {
	wire := obs.DefaultRegistry().Counter("pfrl_fed_wire_upload_bytes_total", "")
	for _, codec := range []fedcore.CodecConfig{{}, {Tier: fedcore.TierI8, Delta: true}} {
		cfg := tinyConfig(6)
		cfg.Codec = codec
		r, err := Train(AlgPFRLDM, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := wire.Value()
		curve, err := RunAblation(cfg, AblationFull, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameCurve(t, fmt.Sprintf("ablation vs train, codec %+v", codec), r.MeanCurve, curve)
		if got := int64(wire.Value() - before); got != r.Comm.UploadBytes {
			t.Fatalf("codec %+v: ablation uploaded %d wire bytes, Train %d", codec, got, r.Comm.UploadBytes)
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
