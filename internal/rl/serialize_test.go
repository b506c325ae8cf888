package rl

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/nn"
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
// sizes its minibatch scratch at no more rows than the buffer holds, so a
// declared minibatch of any size costs nothing; sizing it at MiniBatch rows
// would die in the runtime, out of memory, past any recover.
func TestLoadedCheckpointUpdatesWhateverItsMiniBatch(t *testing.T) {
	a, err := LoadAgent(bytes.NewReader(hostileMiniBatchCheckpoint(t)), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	var buf Buffer
	for i := 0; i < 8; i++ {
		state := []float64{0.1 * float64(i), 0.2, -0.3, 0.4}
		action, logp := a.SelectAction(state)
		buf.Add(state, Transition{Action: action, LogProb: logp, Value: valueOf(a, state), Reward: 1, Done: i == 7})
	}
	stats := a.Update(&buf)
	if math.IsNaN(stats.CriticLoss) || math.IsInf(stats.CriticLoss, 0) || stats.CriticLoss <= 0 {
		t.Fatalf("update over 8 steps reported critic loss %v", stats.CriticLoss)
	}
	if rows := cap(a.upd.actions); rows != 8 {
		t.Fatalf("update sized its minibatch scratch at %d rows for an 8-step buffer", rows)
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

// TestCheckpointWithRetiredConfigKeys loads a v1 checkpoint as the format
// wrote it while γ, λ and the gradient-norm clip were Config fields: the
// three keys are ignored, a re-save drops them, and the agent is the one
// DefaultConfig builds — same bytes on save, same bits after an Update.
func TestCheckpointWithRetiredConfigKeys(t *testing.T) {
	old, err := os.ReadFile("testdata/agent_v1_retired_keys.json")
	if err != nil {
		t.Fatal(err)
	}
	retired := []string{`"Gamma":0.99`, `"Lambda":0.95`, `"MaxGradNorm":0.5`}
	for _, key := range retired {
		if !bytes.Contains(old, []byte(key)) {
			t.Fatalf("fixture lacks %s", key)
		}
	}
	loaded, err := LoadAgent(bytes.NewReader(old), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := SaveAgent(&resaved, loaded); err != nil {
		t.Fatal(err)
	}
	for _, key := range retired {
		if k := key[:strings.IndexByte(key, ':')]; bytes.Contains(resaved.Bytes(), []byte(k)) {
			t.Fatalf("re-saved checkpoint still carries %s", k)
		}
	}

	// The fixture is this agent, saved.
	cfg := DefaultConfig(4, 3)
	cfg.Hidden = []int{8}
	ref := NewDualCriticPPO(cfg, rand.New(rand.NewSource(1)))
	var want bytes.Buffer
	if err := SaveAgent(&want, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), want.Bytes()) {
		t.Fatalf("re-saved checkpoint differs from DefaultConfig's agent:\n got %s\nwant %s", resaved.Bytes(), want.Bytes())
	}

	var buf Buffer
	ref.rng = rand.New(rand.NewSource(9))
	for i := 0; i < 24; i++ {
		state := []float64{0.1 * float64(i%7), 0.2, -0.3 * float64(i%3), 0.4}
		action, logp := ref.SelectAction(state)
		buf.Add(state, Transition{Action: action, LogProb: logp, Value: valueOf(ref, state), Reward: float64(i%5) - 2, Done: i%8 == 7})
	}
	loaded.rng, ref.rng = rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	loaded.Update(&buf)
	ref.Update(&buf)
	for _, nets := range [][2]*nn.MLP{{loaded.Actor, ref.Actor}, {loaded.Critic, ref.Critic}, {loaded.PublicCritic, ref.PublicCritic}} {
		got, want := nn.FlattenParams(nets[0]), nn.FlattenParams(nets[1])
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("after the first Update: param %d = %v, want %v (bitwise)", i, got[i], want[i])
			}
		}
	}
	if loaded.Alpha != ref.Alpha {
		t.Fatalf("after the first Update: alpha %v, want %v", loaded.Alpha, ref.Alpha)
	}
}

// TestLoadAgentRefusesBadHyperparameters: a checkpoint's learning rates, ε
// and entropy coefficient must be finite and non-negative. JSON cannot spell
// NaN or ±Inf, and the decoder already refuses an overflowing literal; the
// check refuses the negative values that used to load, and NaN and ±Inf on
// their own.
func TestLoadAgentRefusesBadHyperparameters(t *testing.T) {
	good := smallCheckpoint(t)
	for _, key := range []string{"ActorLR", "CriticLR", "Clip", "EntCoef"} {
		for _, tc := range []struct {
			value string
			ok    bool
		}{
			{"0", true}, {"-0.001", false}, {"-1e-300", false}, {"1e400", false}, {"-1e400", false},
		} {
			data := withConfigValue(t, good, key, tc.value)
			_, err := LoadAgent(bytes.NewReader(data), rand.New(rand.NewSource(1)))
			if (err == nil) != tc.ok {
				t.Errorf("%s = %s: error %v, want accepted %v", key, tc.value, err, tc.ok)
			}
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
			if err := checkRate(key, v); err == nil || !strings.Contains(err.Error(), key) {
				t.Errorf("%s = %v: error %v, want one naming %s", key, v, err, key)
			}
		}
	}
}

// smallCheckpoint is a plain agent's checkpoint at a small width.
func smallCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	cfg := DefaultConfig(4, 3)
	cfg.Hidden = []int{8}
	if err := SaveAgent(&buf, NewPPO(cfg, rand.New(rand.NewSource(1)))); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// withConfigValue rewrites one config key's value in a checkpoint.
func withConfigValue(tb testing.TB, ck []byte, key, value string) []byte {
	tb.Helper()
	re := regexp.MustCompile(`"` + key + `":[^,}]*`)
	if !re.Match(ck) {
		tb.Fatalf("checkpoint has no %s", key)
	}
	return re.ReplaceAll(ck, []byte(`"`+key+`":`+value))
}
