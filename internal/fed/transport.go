package fed

import (
	"fmt"
	"slices"

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
	// injected fault); it must leave the client unchanged. The payload is
	// the client's upload buffer: it is valid until that client's next
	// Upload, so a caller that keeps it longer copies it.
	Upload(c *Client) (Payload, error)
	// Download installs a payload into the client.
	Download(c *Client, p Payload) error
	// PayloadSize returns the number of scalars exchanged per direction
	// (the communication-cost accounting of §5.2).
	PayloadSize(c *Client) int
}

// actorCritic and publicCritic name the networks of c's agent that travel, in
// payload order, and refuse the other kind of agent: the whole of a plain
// agent, or ψ alone of a dual-critic one. The networks come as an array
// value, a nil entry naming none, so no slice of them is allocated per call.
func actorCritic(c *Client) ([2]*nn.MLP, error) {
	a := c.Agent
	if a.PublicCritic != nil {
		return [2]*nn.MLP{}, fmt.Errorf("fed: client %d has a dual-critic agent, want a plain one", c.ID)
	}
	return [2]*nn.MLP{a.Actor, a.Critic}, nil
}

func publicCritic(c *Client) ([2]*nn.MLP, error) {
	a := c.Agent
	if a.PublicCritic == nil {
		return [2]*nn.MLP{}, fmt.Errorf("fed: client %d has a plain agent, want a dual-critic one", c.ID)
	}
	return [2]*nn.MLP{a.PublicCritic}, nil
}

// size, flatten and install are the one body under every transport; each
// takes the (networks, error) pair of the two functions above.
func size(nets [2]*nn.MLP, err error) int {
	if err != nil {
		panic(err)
	}
	n := 0
	for _, m := range nets {
		if m != nil {
			n += nn.NumParams(m)
		}
	}
	return n
}

// flatten writes the networks' parameters into c's upload buffer, sized
// once to the payload, and returns it.
func (c *Client) flatten(nets [2]*nn.MLP, err error) (Payload, error) {
	if err != nil {
		return nil, err
	}
	c.upload = slices.Grow(c.upload[:0], size(nets, nil))
	for _, m := range nets {
		if m == nil {
			continue
		}
		for _, p := range m.Params() {
			c.upload = append(c.upload, p.Data.Data...)
		}
	}
	return c.upload, nil
}

func install(payload Payload, nets [2]*nn.MLP, err error) error {
	if err != nil {
		return err
	}
	if want := size(nets, nil); len(payload) != want {
		return fmt.Errorf("fed: payload size %d, want %d", len(payload), want)
	}
	for _, m := range nets {
		if m == nil {
			continue
		}
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
func (ActorCriticTransport) Upload(c *Client) (Payload, error) { return c.flatten(actorCritic(c)) }

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
func (PublicCriticTransport) Upload(c *Client) (Payload, error) { return c.flatten(publicCritic(c)) }

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
