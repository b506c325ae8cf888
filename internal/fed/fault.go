package fed

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjectedFault marks failures produced by FaultyTransport rather than
// by the wrapped transport. Callers use errors.Is to decide between
// "transient, retry / skip this round" and "misconfiguration, abort".
var ErrInjectedFault = errors.New("fed: injected fault")

// FaultSpec is a deterministic fault-injection schedule: every Upload and
// Download draws one event from a seeded RNG, so a run with a given spec is
// reproducible, and a spec with all probabilities zero is a bitwise
// pass-through (asserted by the determinism golden test).
type FaultSpec struct {
	// Seed drives the event schedule.
	Seed int64
	// Drop is the probability a call fails with ErrInjectedFault.
	Drop float64
	// Delay is the probability a call is stalled by DelayFor before
	// proceeding (a straggler, not a failure).
	Delay float64
	// DelayFor is the injected stall duration (default 10ms when unset).
	DelayFor time.Duration
	// Duplicate is the probability the underlying operation runs twice —
	// an at-least-once delivery double, exercising idempotency.
	Duplicate float64
	// Corrupt is the probability of a corrupt-length payload: uploads come
	// back truncated, downloads hand the inner transport a truncated copy.
	// Length validation in the transports must turn this into an error.
	Corrupt float64
}

// Active reports whether the spec injects anything at all.
func (s FaultSpec) Active() bool {
	return s.Drop > 0 || s.Delay > 0 || s.Duplicate > 0 || s.Corrupt > 0
}

// ParseFaultSpec parses the CLI form "drop=0.1,delay=0.05:20ms,dup=0.02,
// corrupt=0.01,seed=7". Every field is optional; an empty string is the
// zero (inactive) spec. Probabilities must be numbers in [0, 1] (NaN is
// refused) summing to at most 1, and an explicit delay duration must be
// positive; a bare delay=PROB leaves DelayFor to NewFaultyTransport's default.
func ParseFaultSpec(s string) (FaultSpec, error) {
	var spec FaultSpec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return spec, fmt.Errorf("fed: fault spec field %q is not key=value", field)
		}
		var err error
		switch key {
		case "drop":
			spec.Drop, err = parseProb(val)
		case "delay":
			// delay=PROB or delay=PROB:DURATION
			prob, dur, hasDur := strings.Cut(val, ":")
			if spec.Delay, err = parseProb(prob); err == nil && hasDur {
				if spec.DelayFor, err = time.ParseDuration(dur); err == nil && spec.DelayFor <= 0 {
					err = fmt.Errorf("duration %v is not positive", spec.DelayFor)
				}
			}
		case "dup":
			spec.Duplicate, err = parseProb(val)
		case "corrupt":
			spec.Corrupt, err = parseProb(val)
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return spec, fmt.Errorf("fed: unknown fault spec key %q", key)
		}
		if err != nil {
			return spec, fmt.Errorf("fed: fault spec %s: %w", key, err)
		}
	}
	if total := spec.Drop + spec.Delay + spec.Duplicate + spec.Corrupt; total > 1 {
		return spec, fmt.Errorf("fed: fault probabilities sum to %v > 1", total)
	}
	return spec, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // also refuses NaN
		return 0, fmt.Errorf("probability %v out of [0,1]", p)
	}
	return p, nil
}

// FaultStats counts the events a FaultyTransport injected.
type FaultStats struct {
	Drops, Delays, Duplicates, Corruptions int64
}

// Total returns the number of injected events across all kinds.
func (s FaultStats) Total() int64 {
	return s.Drops + s.Delays + s.Duplicates + s.Corruptions
}

// faultKind is one drawn event.
type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	faultDelay
	faultDuplicate
	faultCorrupt
)

// FaultyTransport decorates a Transport with deterministic fault
// injection. It is safe for concurrent use (the schedule RNG is locked),
// though concurrent callers observe events in arrival order rather than a
// fixed per-client order — deterministic tests run it serially.
type FaultyTransport struct {
	Inner Transport
	Spec  FaultSpec

	mu    sync.Mutex
	rng   *rand.Rand
	stats FaultStats

	// sleep is stubbed in tests; nil means time.Sleep.
	sleep func(time.Duration)
}

// NewFaultyTransport wraps inner with the given schedule.
func NewFaultyTransport(inner Transport, spec FaultSpec) *FaultyTransport {
	if spec.DelayFor <= 0 {
		spec.DelayFor = 10 * time.Millisecond
	}
	return &FaultyTransport{Inner: inner, Spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
}

// Name implements Transport.
func (t *FaultyTransport) Name() string { return "faulty(" + t.Inner.Name() + ")" }

// Stats returns a snapshot of the injected-event counters.
func (t *FaultyTransport) Stats() FaultStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// draw picks at most one event for the next call.
func (t *FaultyTransport) draw() faultKind {
	if !t.Spec.Active() {
		return faultNone
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	u := t.rng.Float64()
	switch {
	case u < t.Spec.Drop:
		t.stats.Drops++
		return faultDrop
	case u < t.Spec.Drop+t.Spec.Delay:
		t.stats.Delays++
		return faultDelay
	case u < t.Spec.Drop+t.Spec.Delay+t.Spec.Duplicate:
		t.stats.Duplicates++
		return faultDuplicate
	case u < t.Spec.Drop+t.Spec.Delay+t.Spec.Duplicate+t.Spec.Corrupt:
		t.stats.Corruptions++
		return faultCorrupt
	}
	return faultNone
}

func (t *FaultyTransport) doSleep() {
	if t.sleep != nil {
		t.sleep(t.Spec.DelayFor)
		return
	}
	time.Sleep(t.Spec.DelayFor)
}

// Upload implements Transport.
func (t *FaultyTransport) Upload(c *Client) (Payload, error) {
	switch t.draw() {
	case faultDrop:
		return nil, fmt.Errorf("%w: upload dropped (client %d)", ErrInjectedFault, c.ID)
	case faultDelay:
		t.doSleep()
	case faultDuplicate:
		// At-least-once: extract twice, deliver the second result (into
		// the same client buffer).
		if _, err := t.Inner.Upload(c); err != nil {
			return nil, err
		}
	case faultCorrupt:
		p, err := t.Inner.Upload(c)
		if err != nil {
			return nil, err
		}
		if len(p) == 0 {
			return nil, fmt.Errorf("%w: corrupt empty upload (client %d)", ErrInjectedFault, c.ID)
		}
		return p[:len(p)-1], nil // a view of c's buffer, as p is
	}
	return t.Inner.Upload(c)
}

// Download implements Transport.
func (t *FaultyTransport) Download(c *Client, p Payload) error {
	switch t.draw() {
	case faultDrop:
		return fmt.Errorf("%w: download dropped (client %d)", ErrInjectedFault, c.ID)
	case faultDelay:
		t.doSleep()
	case faultDuplicate:
		if err := t.Inner.Download(c, p); err != nil {
			return err
		}
	case faultCorrupt:
		if len(p) == 0 {
			return fmt.Errorf("%w: corrupt empty download (client %d)", ErrInjectedFault, c.ID)
		}
		// The inner transport's length check turns this into an error;
		// the truncated copy leaves the caller's payload intact.
		if err := t.Inner.Download(c, p[:len(p)-1]); err != nil {
			return fmt.Errorf("%w: corrupt-length download (client %d): %v", ErrInjectedFault, c.ID, err)
		}
		return fmt.Errorf("fed: transport %s accepted a corrupt-length download", t.Inner.Name())
	}
	return t.Inner.Download(c, p)
}

// PayloadSize implements Transport.
func (t *FaultyTransport) PayloadSize(c *Client) int { return t.Inner.PayloadSize(c) }
