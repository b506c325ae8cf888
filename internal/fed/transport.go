package fed

import (
	"fmt"

	"repro/internal/fedcore"
	"repro/internal/nn"
)

// Payload is a flat parameter vector exchanged between client and server
// (the round engine's wire type).
type Payload = fedcore.Payload

// Transport defines what travels between a client and the server.
type Transport interface {
	// Name identifies the transport in reports.
	Name() string
	// Upload extracts the client's shareable parameters. An error marks
	// the client as unable to contribute this round (wrong kind of agent,
	// injected fault); it must leave the client unchanged.
	Upload(c *Client) (Payload, error)
	// Download installs a payload into the client.
	Download(c *Client, p Payload) error
	// PayloadSize returns the number of scalars exchanged per direction
	// (the communication-cost accounting of §5.2).
	PayloadSize(c *Client) int
}

// actorCritic and publicCritic name the networks of c's agent that travel, in
// payload order, and refuse the other kind of agent: the whole of a plain
// agent, or ψ alone of a dual-critic one.
func actorCritic(c *Client) ([]*nn.MLP, error) {
	a := c.Agent
	if a.PublicCritic != nil {
		return nil, fmt.Errorf("fed: client %d has a dual-critic agent, want a plain one", c.ID)
	}
	return []*nn.MLP{a.Actor, a.Critic}, nil
}

func publicCritic(c *Client) ([]*nn.MLP, error) {
	a := c.Agent
	if a.PublicCritic == nil {
		return nil, fmt.Errorf("fed: client %d has a plain agent, want a dual-critic one", c.ID)
	}
	return []*nn.MLP{a.PublicCritic}, nil
}

// size, flatten and install are the one body under every transport; each
// takes the (networks, error) pair of the two functions above.
func size(nets []*nn.MLP, err error) int {
	if err != nil {
		panic(err)
	}
	n := 0
	for _, m := range nets {
		n += nn.NumParams(m)
	}
	return n
}

func flatten(nets []*nn.MLP, err error) (Payload, error) {
	if err != nil {
		return nil, err
	}
	out := make(Payload, 0, size(nets, nil))
	for _, m := range nets {
		for _, p := range m.Params() {
			out = append(out, p.Data.Data...)
		}
	}
	return out, nil
}

func install(payload Payload, nets []*nn.MLP, err error) error {
	if err != nil {
		return err
	}
	if want := size(nets, nil); len(payload) != want {
		return fmt.Errorf("fed: payload size %d, want %d", len(payload), want)
	}
	for _, m := range nets {
		n := nn.NumParams(m)
		if err := nn.LoadFlatParams(m, payload[:n]); err != nil {
			return err
		}
		payload = payload[n:]
	}
	return nil
}

// ActorCriticTransport moves the full PPO model (actor and critic), the
// behaviour of traditional FedAvg and MFPO. It requires plain agents.
type ActorCriticTransport struct{}

// Name implements Transport.
func (ActorCriticTransport) Name() string { return "actor+critic" }

// Upload implements Transport.
func (ActorCriticTransport) Upload(c *Client) (Payload, error) { return flatten(actorCritic(c)) }

// Download implements Transport.
func (ActorCriticTransport) Download(c *Client, payload Payload) error {
	nets, err := actorCritic(c)
	return install(payload, nets, err)
}

// PayloadSize implements Transport.
func (ActorCriticTransport) PayloadSize(c *Client) int { return size(actorCritic(c)) }

// PublicCriticTransport moves only the public critic ψ — PFRL-DM's
// communication pattern (actors and local critics never leave the client).
// It requires dual-critic agents.
type PublicCriticTransport struct{}

// Name implements Transport.
func (PublicCriticTransport) Name() string { return "public-critic" }

// Upload implements Transport.
func (PublicCriticTransport) Upload(c *Client) (Payload, error) { return flatten(publicCritic(c)) }

// Download implements Transport. Installing a new public critic resets its
// optimizer and refreshes α against the client's most recent trajectories
// (§4.3: α is re-evaluated "each time the model parameters change,
// including … receiving the global model").
func (PublicCriticTransport) Download(c *Client, payload Payload) error {
	if err := c.Agent.LoadPublicCritic(payload, &c.LastBuf); err != nil {
		return fmt.Errorf("fed: client %d: %w", c.ID, err)
	}
	return nil
}

// PayloadSize implements Transport.
func (PublicCriticTransport) PayloadSize(c *Client) int { return size(publicCritic(c)) }

// FedProxTransport is ActorCriticTransport plus FedProx client behaviour:
// every download re-anchors the client's proximal regularizer at the
// received global model, so subsequent local updates are pulled toward it
// (the classic drift mitigation for heterogeneous federations, included as
// an extension baseline).
type FedProxTransport struct {
	ActorCriticTransport
	// Mu is the proximal coefficient applied on the clients.
	Mu float64
}

// Name implements Transport.
func (t FedProxTransport) Name() string { return "fedprox(actor+critic)" }

// Download implements Transport.
func (t FedProxTransport) Download(c *Client, payload Payload) error {
	if err := t.ActorCriticTransport.Download(c, payload); err != nil {
		return err
	}
	c.Agent.EnableProximal(t.Mu)
	return nil
}
