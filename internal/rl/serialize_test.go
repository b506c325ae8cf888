package rl

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadPPO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewPPO(DefaultConfig(6, 4), rng)
	var buf bytes.Buffer
	if err := SaveAgent(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := LoadAgent(&buf, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if b.PublicCritic != nil {
		t.Fatal("loaded a dual-critic agent")
	}
	state := []float64{0.1, -0.2, 0.3, 0.4, -0.5, 0.6}
	if a.GreedyAction(state, nil) != b.GreedyAction(state, nil) {
		t.Fatal("policies disagree after round trip")
	}
	if valueOf(a, state) != valueOf(b, state) {
		t.Fatal("critics disagree after round trip")
	}
}

func TestSaveLoadDualCritic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewDualCriticPPO(DefaultConfig(5, 3), rng)
	a.Alpha = 0.73
	var buf bytes.Buffer
	if err := SaveAgent(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := LoadAgent(&buf, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if b.PublicCritic == nil {
		t.Fatal("loaded a plain agent")
	}
	if b.Alpha != 0.73 {
		t.Fatalf("alpha %v", b.Alpha)
	}
	state := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	if valueOf(a, state) != valueOf(b, state) {
		t.Fatal("blended values disagree after round trip")
	}
	// A pinned α (the ablation rungs) survives the round trip, an adaptive
	// one stays adaptive, and only the pinned one costs a field.
	if b.FixedAlpha != a.FixedAlpha || b.pinned() {
		t.Fatalf("adaptive agent reloaded with FixedAlpha %v", b.FixedAlpha)
	}
	for _, pin := range []float64{0, 0.5} {
		a.FixedAlpha = pin
		var pinned bytes.Buffer
		if err := SaveAgent(&pinned, a); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(pinned.String(), `"fixedAlpha"`) {
			t.Fatalf("FixedAlpha %v not persisted", pin)
		}
		b, err := LoadAgent(&pinned, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		if b.FixedAlpha != pin {
			t.Fatalf("FixedAlpha %v reloaded as %v", pin, b.FixedAlpha)
		}
	}
}

// hostileMiniBatchCheckpoint is a dual-critic checkpoint that loads — every
// network is there at its declared size — and declares a four-billion-row
// minibatch.
func hostileMiniBatchCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	cfg := Config{StateDim: 4, NumActions: 3, Hidden: []int{8}, MiniBatch: 64}
	if err := SaveAgent(&buf, NewDualCriticPPO(cfg, rand.New(rand.NewSource(2)))); err != nil {
		tb.Fatal(err)
	}
	out := bytes.Replace(buf.Bytes(), []byte(`"MiniBatch":64`), []byte(`"MiniBatch":4000000000`), 1)
	if bytes.Equal(out, buf.Bytes()) {
		tb.Fatal("checkpoint has no MiniBatch field to edit")
	}
	return out
}

// TestLoadedCheckpointUpdatesWhateverItsMiniBatch pins the second half of
// DESIGN §9 contract 3: what LoadAgent accepts also trains. The update
// stages no more rows than the buffer holds, so a declared minibatch of any
// size costs nothing; staging MiniBatch rows would die in the runtime, out
// of memory, past any recover.
func TestLoadedCheckpointUpdatesWhateverItsMiniBatch(t *testing.T) {
	a, err := LoadAgent(bytes.NewReader(hostileMiniBatchCheckpoint(t)), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	var buf Buffer
	for i := 0; i < 8; i++ {
		state := []float64{0.1 * float64(i), 0.2, -0.3, 0.4}
		action, logp := a.SelectAction(state)
		buf.Add(Transition{State: state, Action: action, LogProb: logp, Value: valueOf(a, state), Reward: 1, Done: i == 7})
	}
	stats := a.Update(&buf)
	if math.IsNaN(stats.CriticLoss) || math.IsInf(stats.CriticLoss, 0) || stats.CriticLoss <= 0 {
		t.Fatalf("update over 8 steps reported critic loss %v", stats.CriticLoss)
	}
	if rows := a.upd.stagedRows; rows != 8 {
		t.Fatalf("update staged %d rows for an 8-step buffer", rows)
	}
}

func TestLoadAgentRejectsGarbage(t *testing.T) {
	if _, err := LoadAgent(strings.NewReader("not json"), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := LoadAgent(strings.NewReader(`{"format":"other"}`), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected format error")
	}
	if _, err := LoadAgent(strings.NewReader(`{"format":"pfrl-dm/agent/v1","kind":"weird"}`), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected kind error")
	}
}

func TestAgentFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "agent.json")
	a := NewPPO(DefaultConfig(3, 2), rand.New(rand.NewSource(5)))
	if err := SaveAgentFile(path, a); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAgentFile(path, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{1, 2, 3}
	if valueOf(loaded, state) != valueOf(a, state) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadAgentFile(filepath.Join(dir, "missing.json"), rand.New(rand.NewSource(7))); err == nil {
		t.Fatal("expected missing-file error")
	}
}
