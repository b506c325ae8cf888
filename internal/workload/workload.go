// Package workload models the ten cloud workload datasets the paper samples
// tasks from (Google 2011, Alibaba-2017/2018, three HPC centers, two
// Chameleon KVM clouds, CERIT-SC and its Kubernetes cluster).
//
// The real traces are not redistributable, and the paper itself does not
// replay them: it "considers the workload datasets as distributions and
// samples 3500 tasks for each client" (§5.1). We therefore model each
// dataset as a parameterized joint distribution over
//
//	(requested vCPUs, requested memory, execution time, inter-arrival gap)
//
// whose qualitative shapes follow what the paper reports in Figures 2–5 and
// Table 1: Google is dominated by tiny, short, bursty tasks; the HPC centers
// submit few, large, long jobs; the KVM education clouds sit in between with
// diurnal arrivals; the Kubernetes cluster runs small containers with
// heavy-tailed runtimes. The load-bearing property — strong heterogeneity
// across clients in all four marginals — is preserved by construction.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Task is one schedulable unit of work sampled from a dataset.
type Task struct {
	ID       int     // unique within the sampled set
	Arrival  int     // arrival time slot (non-decreasing within a set)
	CPU      int     // requested vCPUs
	Mem      float64 // requested memory in GiB
	Duration int     // execution time in slots on any VM that fits it
	Source   DatasetID
	SLO      SLOClass // service tier (zero value: best-effort)
}

// DatasetID identifies one of the ten modelled workload datasets.
type DatasetID int

// The ten datasets used across the paper's experiments (§3, §5.1).
const (
	Google DatasetID = iota
	Alibaba2017
	Alibaba2018
	HPCKS
	HPCHF
	HPCWZ
	KVM2019
	KVM2020
	CERITSC
	K8S
	numDatasets
)

// NumDatasets is the number of modelled datasets.
const NumDatasets = int(numDatasets)

// String returns the dataset's trace name.
func (d DatasetID) String() string {
	names := [...]string{
		"Google", "Alibaba-2017", "Alibaba-2018", "HPC-KS", "HPC-HF",
		"HPC-WZ", "KVM-2019", "KVM-2020", "CERIT-SC", "K8S",
	}
	if d < 0 || int(d) >= len(names) {
		return fmt.Sprintf("DatasetID(%d)", int(d))
	}
	return names[d]
}

// AllDatasets returns the ten dataset IDs in canonical order.
func AllDatasets() []DatasetID {
	out := make([]DatasetID, NumDatasets)
	for i := range out {
		out[i] = DatasetID(i)
	}
	return out
}

// ArrivalKind selects a Model's arrival process. The zero value is the
// legacy bursty process, so models built before the spec engine behave
// exactly as they always did.
type ArrivalKind int

// The four supported arrival processes.
const (
	// ArrivalBurst is the legacy process: at each slot a geometric batch
	// (mean 1/Burstiness) materializes with probability Burstiness·rate.
	ArrivalBurst ArrivalKind = iota
	// ArrivalPoisson draws an independent Poisson count of tasks per slot
	// at the diurnally modulated rate; Burstiness is unused.
	ArrivalPoisson
	// ArrivalGammaBurst separates geometric batches by gamma-distributed
	// gaps of shape GapShape and mean 1/(rate·Burstiness).
	ArrivalGammaBurst
	// ArrivalWeibull separates geometric batches by Weibull-distributed
	// gaps of shape GapShape and mean 1/(rate·Burstiness).
	ArrivalWeibull
)

// DistKind selects a marginal distribution family for memory or duration.
// The zero value keeps the legacy lognormal forms.
type DistKind int

// The supported distribution families.
const (
	// DistLogNormal is the legacy family: memory is lognormal around
	// CPU·MemPerCPU, duration is lognormal(DurMu, DurSigma).
	DistLogNormal DistKind = iota
	// DistQuantile samples by inverse-CDF over an empirical quantile grid
	// (MemQuantiles / DurQuantiles), linearly interpolated.
	DistQuantile
)

// Model is the generative model for one dataset. All fields are exported so
// experiments can construct ad-hoc variants (e.g. for ablations). The zero
// values of the spec-engine fields (Arrival, MemDist, DurDist, SLO,
// GapShape) reproduce the original generator bit-for-bit.
type Model struct {
	ID   DatasetID
	Name string

	// SLO is stamped onto every sampled task.
	SLO SLOClass

	// CPU request distribution: weighted discrete choices.
	CPUChoices []int
	CPUWeights []float64

	// Memory request in GiB. DistLogNormal: lognormal around
	// CPU·MemPerCPU with multiplicative spread MemSpread (sigma of the
	// underlying normal). DistQuantile: inverse-CDF over MemQuantiles.
	// Both are clamped to [MemMin, MemMax] and quantized to 0.25 GiB.
	MemDist      DistKind
	MemPerCPU    float64
	MemSpread    float64
	MemQuantiles []float64
	MemMin       float64
	MemMax       float64

	// Execution time in slots. DistLogNormal: lognormal(mu, sigma).
	// DistQuantile: inverse-CDF over DurQuantiles. Both truncated to
	// [DurMin, DurMax].
	DurDist      DistKind
	DurMu        float64
	DurSigma     float64
	DurQuantiles []float64
	DurMin       int
	DurMax       int

	// Arrival process: mean tasks per slot with sinusoidal diurnal
	// modulation of the given relative amplitude and period, plus
	// burstiness in (0,1]: lower values produce heavier clumping
	// (geometric batch sizes with mean 1/Burstiness). GapShape is the
	// gamma/weibull shape parameter of the gap-based processes.
	Arrival       ArrivalKind
	RatePerSlot   float64
	DiurnalAmp    float64
	DiurnalPeriod int
	Burstiness    float64
	GapShape      float64
}

// Validate checks internal consistency of the model parameters.
func (m *Model) Validate() error {
	for _, f := range []float64{m.MemPerCPU, m.MemSpread, m.MemMin, m.MemMax,
		m.DurMu, m.DurSigma, m.RatePerSlot, m.DiurnalAmp, m.Burstiness, m.GapShape} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("workload: %s: non-finite model parameter", m.Name)
		}
	}
	switch {
	case len(m.CPUChoices) == 0 || len(m.CPUChoices) != len(m.CPUWeights):
		return fmt.Errorf("workload: %s: CPU choices/weights mismatch", m.Name)
	case m.MemMin <= 0 || m.MemMax < m.MemMin:
		return fmt.Errorf("workload: %s: invalid memory parameters", m.Name)
	case m.DurMin < 1 || m.DurMax < m.DurMin:
		return fmt.Errorf("workload: %s: invalid duration bounds", m.Name)
	case m.RatePerSlot <= 0:
		return fmt.Errorf("workload: %s: non-positive arrival rate", m.Name)
	case m.DiurnalPeriod <= 0:
		return fmt.Errorf("workload: %s: diurnal period must be positive", m.Name)
	case m.SLO < 0 || int(m.SLO) >= NumSLOClasses:
		return fmt.Errorf("workload: %s: unknown SLO class %d", m.Name, int(m.SLO))
	}
	for _, c := range m.CPUChoices {
		if c < 1 {
			return fmt.Errorf("workload: %s: non-positive CPU choice %d", m.Name, c)
		}
	}
	total := 0.0
	for _, w := range m.CPUWeights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("workload: %s: invalid CPU weight %v", m.Name, w)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("workload: %s: zero total CPU weight", m.Name)
	}
	switch m.Arrival {
	case ArrivalPoisson:
		// Per-slot Poisson counts: Burstiness is unused.
	case ArrivalBurst, ArrivalGammaBurst, ArrivalWeibull:
		if m.Burstiness <= 0 || m.Burstiness > 1 {
			return fmt.Errorf("workload: %s: burstiness must be in (0,1]", m.Name)
		}
		if m.Arrival != ArrivalBurst && (m.GapShape < 0.01 || m.GapShape > 1000) {
			// The bounds keep the gamma/weibull mean-matching numerically
			// sound (Γ(1+1/k) overflows for tiny shapes).
			return fmt.Errorf("workload: %s: gap shape must be in [0.01, 1000]", m.Name)
		}
	default:
		return fmt.Errorf("workload: %s: unknown arrival process %d", m.Name, int(m.Arrival))
	}
	switch m.MemDist {
	case DistLogNormal:
		if m.MemPerCPU <= 0 {
			return fmt.Errorf("workload: %s: invalid memory parameters", m.Name)
		}
	case DistQuantile:
		if err := validateQuantiles(m.MemQuantiles); err != nil {
			return fmt.Errorf("workload: %s: memory quantiles: %w", m.Name, err)
		}
	default:
		return fmt.Errorf("workload: %s: unknown memory distribution %d", m.Name, int(m.MemDist))
	}
	switch m.DurDist {
	case DistLogNormal:
		// Any finite (mu, sigma) is usable; bounds clamp the tails.
	case DistQuantile:
		if err := validateQuantiles(m.DurQuantiles); err != nil {
			return fmt.Errorf("workload: %s: duration quantiles: %w", m.Name, err)
		}
	default:
		return fmt.Errorf("workload: %s: unknown duration distribution %d", m.Name, int(m.DurDist))
	}
	return nil
}

// validateQuantiles checks an empirical quantile grid for inverse-CDF
// sampling: at least two finite, non-negative, non-decreasing points.
func validateQuantiles(q []float64) error {
	if len(q) < 2 {
		return fmt.Errorf("need at least 2 points, got %d", len(q))
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("point %d is %v, want finite and non-negative", i, v)
		}
		if i > 0 && v < q[i-1] {
			return fmt.Errorf("points must be non-decreasing (point %d: %v < %v)", i, v, q[i-1])
		}
	}
	return nil
}

// sampleQuantile inverts an empirical CDF given as a quantile grid with
// evenly spaced probabilities, linearly interpolating between points.
func sampleQuantile(q []float64, u float64) float64 {
	pos := u * float64(len(q)-1)
	lo := int(pos)
	if lo >= len(q)-1 {
		return q[len(q)-1]
	}
	frac := pos - float64(lo)
	return q[lo] + frac*(q[lo+1]-q[lo])
}

// sampleMem draws a memory request; the lognormal family correlates it with
// the vCPU request.
func (m *Model) sampleMem(rng *rand.Rand, cpu int) float64 {
	var mem float64
	if m.MemDist == DistQuantile {
		mem = sampleQuantile(m.MemQuantiles, rng.Float64())
	} else {
		mem = float64(cpu) * m.MemPerCPU * math.Exp(m.MemSpread*rng.NormFloat64())
	}
	if mem < m.MemMin {
		mem = m.MemMin
	}
	if mem > m.MemMax {
		mem = m.MemMax
	}
	// Quantize to 0.25 GiB, matching trace-style requests.
	return math.Round(mem*4) / 4
}

// sampleDuration draws an execution time in slots.
func (m *Model) sampleDuration(rng *rand.Rand) int {
	var d int
	if m.DurDist == DistQuantile {
		d = int(math.Round(sampleQuantile(m.DurQuantiles, rng.Float64())))
	} else {
		d = int(math.Round(math.Exp(m.DurMu + m.DurSigma*rng.NormFloat64())))
	}
	if d < m.DurMin {
		d = m.DurMin
	}
	if d > m.DurMax {
		d = m.DurMax
	}
	return d
}

// Sample generates n tasks with non-decreasing arrival slots by draining a
// Stream, so both paths share one generator and consume the RNG in exactly
// the same order (pinned by TestStreamMatchesSample).
//
// Under the default ArrivalBurst process, arrivals are bursty and diurnally
// modulated: at each slot the expected batch count is
// RatePerSlot·(1 + DiurnalAmp·sin(2πt/period)); a batch materializes with
// probability Burstiness·rate (capped), and batch sizes are geometric with
// mean 1/Burstiness, so the marginal rate matches RatePerSlot while low
// Burstiness yields heavy clumping. See ArrivalKind for the alternatives.
func (m *Model) Sample(rng *rand.Rand, n int) []Task { return drain(m.Stream(rng, n).Next, n) }

// drain materializes a stream by calling its Next until it stops; n sizes
// the result when the length is known up front.
func drain(next func() (Task, bool), n int) []Task {
	tasks := make([]Task, 0, n)
	for t, ok := next(); ok; t, ok = next() {
		tasks = append(tasks, t)
	}
	return tasks
}

// SampleDataset is shorthand for Lookup(id).Sample(rng, n).
func SampleDataset(id DatasetID, rng *rand.Rand, n int) []Task {
	return Lookup(id).Sample(rng, n)
}
