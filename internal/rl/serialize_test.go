package rl

import (
	"bytes"
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
	loadedAgent, err := LoadAgent(&buf, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := loadedAgent.(*PPO)
	if !ok {
		t.Fatalf("loaded %T", loadedAgent)
	}
	state := []float64{0.1, -0.2, 0.3, 0.4, -0.5, 0.6}
	if a.GreedyAction(state, nil) != b.GreedyAction(state, nil) {
		t.Fatal("policies disagree after round trip")
	}
	if a.Value(state) != b.Value(state) {
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
	loadedAgent, err := LoadAgent(&buf, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := loadedAgent.(*DualCriticPPO)
	if !ok {
		t.Fatalf("loaded %T", loadedAgent)
	}
	if b.Alpha != 0.73 {
		t.Fatalf("alpha %v", b.Alpha)
	}
	state := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	if a.Value(state) != b.Value(state) {
		t.Fatal("blended values disagree after round trip")
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
	if loaded.(*PPO).Value(state) != a.Value(state) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadAgentFile(filepath.Join(dir, "missing.json"), rand.New(rand.NewSource(7))); err == nil {
		t.Fatal("expected missing-file error")
	}
}
