package rl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/nn"
)

// agentCheckpoint is the on-disk representation of a trained agent. Format
// v1 has two kinds: a plain agent keeps φ under "critic"; a dual-critic one
// keeps it under "localCritic", beside ψ, α and — when pinned — the fixed α.
type agentCheckpoint struct {
	Format     string   `json:"format"`
	Kind       string   `json:"kind"` // kindPlain | kindDual
	Cfg        Config   `json:"config"`
	Alpha      float64  `json:"alpha,omitempty"`
	FixedAlpha *float64 `json:"fixedAlpha,omitempty"`

	Actor        []float64 `json:"actor"`
	Critic       []float64 `json:"critic,omitempty"`
	LocalCritic  []float64 `json:"localCritic,omitempty"`
	PublicCritic []float64 `json:"publicCritic,omitempty"`
}

const (
	agentFormat = "pfrl-dm/agent/v1"
	kindPlain   = "ppo"
	kindDual    = "dual-critic"
)

// SaveAgent serializes an agent as JSON. Optimizer moments are not
// persisted: a reloaded agent is for inference or fine-tuning with fresh
// optimizer state.
func SaveAgent(w io.Writer, a *PPO) error {
	ck := agentCheckpoint{Format: agentFormat, Kind: kindPlain, Cfg: a.Cfg, Actor: nn.FlattenParams(a.Actor)}
	if a.PublicCritic == nil {
		ck.Critic = nn.FlattenParams(a.Critic)
	} else {
		ck.Kind = kindDual
		ck.Alpha = a.Alpha
		if a.pinned() {
			ck.FixedAlpha = &a.FixedAlpha
		}
		ck.LocalCritic = nn.FlattenParams(a.Critic)
		ck.PublicCritic = nn.FlattenParams(a.PublicCritic)
	}
	return json.NewEncoder(w).Encode(ck)
}

// LoadAgent reconstructs an agent saved by SaveAgent. The returned agent
// uses rng for its action sampling.
func LoadAgent(r io.Reader, rng *rand.Rand) (*PPO, error) {
	var ck agentCheckpoint
	if err := json.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("rl: decode agent checkpoint: %w", err)
	}
	if ck.Format != agentFormat {
		return nil, fmt.Errorf("rl: unknown agent checkpoint format %q", ck.Format)
	}
	phi, dual := ck.Critic, false
	switch ck.Kind {
	case kindPlain:
	case kindDual:
		phi, dual = ck.LocalCritic, true
	default:
		return nil, fmt.Errorf("rl: unknown agent kind %q", ck.Kind)
	}
	// Validate the declared architecture and payload lengths before
	// constructing anything: newAgent trusts its Config, so a hostile
	// checkpoint must be stopped here, with an error. The constructor
	// applies withDefaults, so validate the defaulted shape.
	cfg := ck.Cfg.withDefaults()
	actorN, err := nn.CheckSizes(cfg.actorSizes())
	if err != nil {
		return nil, fmt.Errorf("rl: checkpoint actor: %w", err)
	}
	criticN, err := nn.CheckSizes(cfg.criticSizes())
	if err != nil {
		return nil, fmt.Errorf("rl: checkpoint critic: %w", err)
	}
	carried := func(name string, got []float64, want int) error {
		if len(got) != want {
			return fmt.Errorf("rl: checkpoint carries %d %s params, architecture needs %d", len(got), name, want)
		}
		return nil
	}
	err = errors.Join(carried("actor", ck.Actor, actorN), carried("critic", phi, criticN))
	if dual {
		err = errors.Join(err, carried("public critic", ck.PublicCritic, criticN))
	}
	if err != nil {
		return nil, err
	}
	a := newAgent(ck.Cfg, rng, dual)
	err = errors.Join(nn.LoadFlatParams(a.Actor, ck.Actor), nn.LoadFlatParams(a.Critic, phi))
	if dual {
		err = errors.Join(err, nn.LoadFlatParams(a.PublicCritic, ck.PublicCritic))
		a.Alpha = ck.Alpha
		if ck.FixedAlpha != nil {
			a.FixedAlpha = *ck.FixedAlpha
		}
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// SaveAgentFile writes an agent checkpoint to path.
func SaveAgentFile(path string, agent *PPO) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveAgent(f, agent); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadAgentFile reads an agent checkpoint from path.
func LoadAgentFile(path string, rng *rand.Rand) (*PPO, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadAgent(f, rng)
}
