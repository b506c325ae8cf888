package rl

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to the agent deserializer.
// Malformed input must produce an error — never a panic, and never the
// construction of an architecture the checkpoint merely claims to carry.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := Config{StateDim: 4, NumActions: 3, Hidden: []int{8}}
	for i, agent := range []*PPO{
		NewPPO(cfg, rand.New(rand.NewSource(1))),
		NewDualCriticPPO(cfg, rand.New(rand.NewSource(2))),
	} {
		var buf bytes.Buffer
		if err := SaveAgent(&buf, agent); err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"format":"pfrl-dm/agent/v1","kind":"ppo","config":{"StateDim":-5,"NumActions":2}}`))
	f.Add([]byte(`{"format":"pfrl-dm/agent/v1","kind":"ppo","config":{"StateDim":70000,"NumActions":70000}}`))
	f.Add([]byte(`{"format":"pfrl-dm/agent/v1","kind":"dual-critic","config":{"StateDim":2,"NumActions":2},"actor":[1]}`))
	f.Add(hostileMiniBatchCheckpoint(f))
	f.Add([]byte(`{"format":"nope"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		agent, err := LoadAgent(bytes.NewReader(data), rand.New(rand.NewSource(9)))
		if err != nil {
			return
		}
		// An accepted agent must be re-serializable.
		var out bytes.Buffer
		if err := SaveAgent(&out, agent); err != nil {
			t.Fatalf("accepted checkpoint failed to re-save: %v", err)
		}
		if _, err := LoadAgent(&out, rand.New(rand.NewSource(9))); err != nil {
			t.Fatalf("re-saved checkpoint failed to re-load: %v", err)
		}
	})
}
