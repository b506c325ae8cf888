package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
)

// Spec is a declarative, multi-tenant workload description: one or more
// clients, each with an arrival process, resource distributions, a relative
// rate fraction, and a service class. Specs are strict JSON (unknown fields
// are rejected) and compile into the Model generator machinery, so
// everything downstream of Sample/Stream — ClampTasks, TaskSource, the
// simulator — consumes spec-driven traffic unchanged. The ten builtin
// datasets are preset specs (see PresetSpec, Lookup).
type Spec struct {
	Name    string       `json:"name"`
	Clients []SpecClient `json:"clients"`
}

// SpecClient describes one tenant of a Spec.
type SpecClient struct {
	// ID names the client in errors and reports. Required, unique.
	ID string `json:"id"`
	// Dataset optionally labels sampled tasks with a builtin dataset's
	// Source ID (by trace name, e.g. "Google"). When absent, tasks carry a
	// synthetic Source beyond the builtin range, one per client.
	Dataset string `json:"dataset,omitempty"`
	// RateFraction is the client's share of the sampled tasks, relative to
	// the sum over all clients. Required, positive.
	RateFraction float64 `json:"rate_fraction"`
	// SLOClass is "best-effort" (the default), "standard" or "critical".
	SLOClass string `json:"slo_class,omitempty"`

	Arrival  ArrivalSpec `json:"arrival"`
	CPU      CPUSpec     `json:"cpu"`
	Memory   MemSpec     `json:"memory"`
	Duration DurSpec     `json:"duration"`
}

// ArrivalSpec selects and parameterizes a client's arrival process.
type ArrivalSpec struct {
	// Process is "burst" (the default), "poisson", "gamma-burst" or
	// "weibull"; see ArrivalKind for the semantics.
	Process     string  `json:"process,omitempty"`
	RatePerSlot float64 `json:"rate_per_slot"`
	DiurnalAmp  float64 `json:"diurnal_amp,omitempty"`
	// DiurnalPeriod defaults to 144 slots, the builtin models' day length.
	DiurnalPeriod int     `json:"diurnal_period,omitempty"`
	Burstiness    float64 `json:"burstiness,omitempty"`
	GapShape      float64 `json:"gap_shape,omitempty"`
}

// CPUSpec is the weighted-discrete vCPU request distribution.
type CPUSpec struct {
	Choices []int     `json:"choices"`
	Weights []float64 `json:"weights"`
}

// MemSpec is the memory request distribution in GiB.
type MemSpec struct {
	// Dist is "lognormal-per-cpu" (the default) or "quantile".
	Dist      string    `json:"dist,omitempty"`
	PerCPU    float64   `json:"per_cpu,omitempty"`
	Spread    float64   `json:"spread,omitempty"`
	Quantiles []float64 `json:"quantiles,omitempty"`
	Min       float64   `json:"min"`
	Max       float64   `json:"max"`
}

// DurSpec is the execution time distribution in slots.
type DurSpec struct {
	// Dist is "lognormal" (the default) or "quantile".
	Dist      string    `json:"dist,omitempty"`
	Median    float64   `json:"median,omitempty"`
	Sigma     float64   `json:"sigma,omitempty"`
	Quantiles []float64 `json:"quantiles,omitempty"`
	Min       int       `json:"min"`
	Max       int       `json:"max"`
}

// ParseSpec decodes a strict-JSON spec: unknown fields and trailing content
// are rejected so typos fail loudly instead of silently defaulting.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload: parse spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("workload: parse spec: trailing data after spec object")
	}
	return &s, nil
}

// LoadSpec reads, parses, and validates a spec file. Errors carry
// file:client:field context.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: spec %s: %w", path, err)
	}
	defer f.Close()
	s, err := ParseSpec(f)
	if err != nil {
		return nil, fmt.Errorf("workload: spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("workload: spec %s: %w", path, err)
	}
	return s, nil
}

// Validate checks the spec without building a generator.
func (s *Spec) Validate() error {
	_, err := s.Compile()
	return err
}

// CompiledClient is one tenant's compiled generator.
type CompiledClient struct {
	ID       string
	Fraction float64
	Model    *Model
}

// Compiled is a spec lowered onto the Model machinery, ready to sample.
type Compiled struct {
	Name    string
	Clients []CompiledClient
}

// Compile lowers the spec onto Models, validating every field. Errors name
// the client index, ID, and offending field.
func (s *Spec) Compile() (*Compiled, error) {
	if len(s.Clients) == 0 {
		return nil, fmt.Errorf("workload: spec %q: no clients", s.Name)
	}
	c := &Compiled{Name: s.Name}
	seen := make(map[string]bool, len(s.Clients))
	for i := range s.Clients {
		cl := &s.Clients[i]
		if cl.ID == "" {
			return nil, fmt.Errorf("workload: spec %q: client %d: id: must not be empty", s.Name, i)
		}
		if seen[cl.ID] {
			return nil, fmt.Errorf("workload: spec %q: client %d: id: duplicate %q", s.Name, i, cl.ID)
		}
		seen[cl.ID] = true
		m, err := cl.compile(i)
		if err != nil {
			return nil, fmt.Errorf("workload: spec %q: client %d (%q): %w", s.Name, i, cl.ID, err)
		}
		c.Clients = append(c.Clients, CompiledClient{ID: cl.ID, Fraction: cl.RateFraction, Model: m})
	}
	return c, nil
}

// ParseDatasetName resolves a builtin dataset's trace name (e.g. "Google",
// "KVM-2019"), case-insensitively.
func ParseDatasetName(name string) (DatasetID, error) {
	for _, id := range AllDatasets() {
		if strings.EqualFold(name, id.String()) {
			return id, nil
		}
	}
	return 0, fmt.Errorf("unknown dataset %q", name)
}

func (cl *SpecClient) compile(index int) (*Model, error) {
	m := &Model{Name: cl.ID}
	if cl.Dataset != "" {
		id, err := ParseDatasetName(cl.Dataset)
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		m.ID = id
	} else {
		// Synthetic Source beyond the builtin range, one per client, so
		// mixed-tenant sets stay attributable.
		m.ID = DatasetID(NumDatasets + index)
	}
	if !(cl.RateFraction > 0) || math.IsInf(cl.RateFraction, 0) {
		return nil, fmt.Errorf("rate_fraction: must be positive and finite (got %v)", cl.RateFraction)
	}
	slo, err := ParseSLOClass(cl.SLOClass)
	if err != nil {
		return nil, fmt.Errorf("slo_class: %w", err)
	}
	m.SLO = slo

	switch cl.Arrival.Process {
	case "", "burst":
		m.Arrival = ArrivalBurst
	case "poisson":
		m.Arrival = ArrivalPoisson
	case "gamma-burst":
		m.Arrival = ArrivalGammaBurst
	case "weibull":
		m.Arrival = ArrivalWeibull
	default:
		return nil, fmt.Errorf("arrival.process: unknown %q (want burst, poisson, gamma-burst or weibull)", cl.Arrival.Process)
	}
	m.RatePerSlot = cl.Arrival.RatePerSlot
	m.DiurnalAmp = cl.Arrival.DiurnalAmp
	m.DiurnalPeriod = cl.Arrival.DiurnalPeriod
	if m.DiurnalPeriod == 0 {
		m.DiurnalPeriod = 144
	}
	m.Burstiness = cl.Arrival.Burstiness
	m.GapShape = cl.Arrival.GapShape

	m.CPUChoices = append([]int(nil), cl.CPU.Choices...)
	m.CPUWeights = append([]float64(nil), cl.CPU.Weights...)

	switch cl.Memory.Dist {
	case "", "lognormal-per-cpu":
		m.MemDist = DistLogNormal
		m.MemPerCPU = cl.Memory.PerCPU
		m.MemSpread = cl.Memory.Spread
	case "quantile":
		m.MemDist = DistQuantile
		m.MemQuantiles = append([]float64(nil), cl.Memory.Quantiles...)
	default:
		return nil, fmt.Errorf("memory.dist: unknown %q (want lognormal-per-cpu or quantile)", cl.Memory.Dist)
	}
	m.MemMin = cl.Memory.Min
	m.MemMax = cl.Memory.Max

	switch cl.Duration.Dist {
	case "", "lognormal":
		m.DurDist = DistLogNormal
		if !(cl.Duration.Median > 0) || math.IsInf(cl.Duration.Median, 0) {
			return nil, fmt.Errorf("duration.median: must be positive and finite (got %v)", cl.Duration.Median)
		}
		m.DurMu = math.Log(cl.Duration.Median)
		m.DurSigma = cl.Duration.Sigma
	case "quantile":
		m.DurDist = DistQuantile
		m.DurQuantiles = append([]float64(nil), cl.Duration.Quantiles...)
	default:
		return nil, fmt.Errorf("duration.dist: unknown %q (want lognormal or quantile)", cl.Duration.Dist)
	}
	m.DurMin = cl.Duration.Min
	m.DurMax = cl.Duration.Max

	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// counts splits n tasks across clients proportionally to rate fractions,
// with cumulative rounding so the shares always sum to exactly n.
func (c *Compiled) counts(n int) []int {
	sum := 0.0
	for _, cl := range c.Clients {
		sum += cl.Fraction
	}
	counts := make([]int, len(c.Clients))
	acc, assigned := 0.0, 0
	for i, cl := range c.Clients {
		acc += cl.Fraction / sum
		k := int(math.Round(acc * float64(n)))
		if i == len(c.Clients)-1 {
			k = n
		}
		counts[i] = k - assigned
		assigned = k
	}
	return counts
}

// Sample draws n tasks from the compiled spec by draining Stream, exactly as
// Model.Sample drains Model.Stream.
func (c *Compiled) Sample(rng *rand.Rand, n int) []Task { return drain(c.Stream(rng, n).Next, n) }

// TaskStream is a lazy generator over a finite task sequence. *Stream
// implements it, as do compiled multi-client specs.
type TaskStream interface {
	// Next emits the next task, or false once the sequence is exhausted.
	Next() (Task, bool)
	// Remaining reports how many tasks the stream will still emit.
	Remaining() int
}

// Stream returns a lazy generator over n tasks. A single-client spec
// delegates directly to its model with the caller's RNG — this is what makes
// a preset's stream its builtin dataset's. Multi-client specs seed one child
// RNG per client from the caller's RNG (in client order), give each client
// its share of n, and merge the per-client streams by (arrival, client
// order) — the ordering a stable sort of the concatenated samples produces
// (pinned by TestSpecStreamMatchesSample) — with arrivals rebased against
// the earliest first peek and IDs renumbered on emission.
func (c *Compiled) Stream(rng *rand.Rand, n int) TaskStream {
	if len(c.Clients) == 1 {
		return c.Clients[0].Model.Stream(rng, n)
	}
	counts := c.counts(n)
	ss := &specStream{
		streams: make([]*Stream, len(c.Clients)),
		peek:    make([]Task, len(c.Clients)),
		has:     make([]bool, len(c.Clients)),
		total:   n,
	}
	for i, cl := range c.Clients {
		crng := rand.New(rand.NewSource(rng.Int63()))
		ss.streams[i] = cl.Model.Stream(crng, counts[i])
	}
	return ss
}

// specStream k-way-merges per-client Streams by (arrival, client index).
type specStream struct {
	streams []*Stream
	peek    []Task
	has     []bool
	base    int
	primed  bool

	produced int
	total    int
}

func (s *specStream) prime() {
	base := math.MaxInt
	for i, st := range s.streams {
		s.peek[i], s.has[i] = st.Next()
		if s.has[i] && s.peek[i].Arrival < base {
			base = s.peek[i].Arrival
		}
	}
	if base == math.MaxInt {
		base = 0
	}
	s.base = base
	s.primed = true
}

// Next emits the next merged task. Arrivals are non-decreasing: each client
// stream is non-decreasing and the merge always takes the global minimum.
func (s *specStream) Next() (Task, bool) {
	if !s.primed {
		s.prime()
	}
	best := -1
	for i := range s.streams {
		if s.has[i] && (best < 0 || s.peek[i].Arrival < s.peek[best].Arrival) {
			best = i
		}
	}
	if best < 0 {
		return Task{}, false
	}
	t := s.peek[best]
	s.peek[best], s.has[best] = s.streams[best].Next()
	t.Arrival -= s.base
	t.ID = s.produced
	s.produced++
	return t, true
}

func (s *specStream) Remaining() int { return s.total - s.produced }
