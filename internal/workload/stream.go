package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
)

// Stream generates the same task sequence as Model.Sample, one task at a
// time, so thousand-VM / million-task episodes never materialize the full
// workload. The generator holds only the current slot and the remainder of
// the in-flight arrival batch (at most 64 tasks are ever pending), and its
// RNG consumption order matches Sample exactly: for the same model, seed,
// and n, the emitted tasks are bit-identical to Sample's slice (pinned by
// TestStreamMatchesSample — trivially so, since Sample now drains a Stream).
type Stream struct {
	m   *Model
	rng *rand.Rand
	n   int

	// Cumulative CPU weights, precomputed once so each draw costs one
	// uniform plus a binary search instead of re-summing the weight
	// vector. The running sums accumulate in the same order the historical
	// per-draw scan did, so selections are bit-identical (pinned by
	// TestSampleMatchesLegacyGenerator).
	cpuCum   []float64
	cpuTotal float64

	produced  int
	slot      int // next slot to draw an arrival batch for
	batchSlot int // arrival slot of the in-flight batch
	batchLeft int // tasks remaining in the in-flight batch
}

// Stream returns a lazy generator over n tasks drawn from the model. It
// panics on an invalid model, like Sample.
func (m *Model) Stream(rng *rand.Rand, n int) *Stream {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	s := &Stream{m: m, rng: rng, n: n}
	s.cpuCum = make([]float64, len(m.CPUWeights))
	acc := 0.0
	for i, w := range m.CPUWeights {
		acc += w
		s.cpuCum[i] = acc
	}
	s.cpuTotal = acc
	return s
}

// Remaining returns the number of tasks the stream will still emit.
func (s *Stream) Remaining() int { return s.n - s.produced }

// rateAt is the diurnally modulated arrival rate at a slot — the exact
// expression the legacy generator inlined, kept verbatim so the burst path
// stays bit-identical.
func (s *Stream) rateAt(slot int) float64 {
	m := s.m
	phase := 2 * math.Pi * float64(slot%m.DiurnalPeriod) / float64(m.DiurnalPeriod)
	rate := m.RatePerSlot * (1 + m.DiurnalAmp*math.Sin(phase))
	if rate < 0 {
		rate = 0
	}
	return rate
}

// sampleCPU draws a vCPU request from the precomputed cumulative weights:
// the first index whose running sum exceeds u, exactly as the legacy linear
// scan selected it (including the fall-through to the last choice).
func (s *Stream) sampleCPU() int {
	u := s.rng.Float64() * s.cpuTotal
	i := sort.Search(len(s.cpuCum), func(j int) bool { return u < s.cpuCum[j] })
	if i >= len(s.cpuCum) {
		i = len(s.cpuCum) - 1
	}
	return s.m.CPUChoices[i]
}

// geometricBatch draws a batch size with mean 1/Burstiness, capped at 64.
func (s *Stream) geometricBatch() int {
	batch := 1
	for s.rng.Float64() > s.m.Burstiness && batch < 64 {
		batch++
	}
	return batch
}

// nextGapBatch advances the gap-based renewal processes: geometric batches
// separated by gamma- or Weibull-distributed gaps whose mean
// 1/(rate·Burstiness) keeps the marginal task rate at the diurnally
// modulated RatePerSlot. The rate is floored at 1% of RatePerSlot so deep
// diurnal troughs cannot produce unbounded gaps.
func (s *Stream) nextGapBatch() {
	m := s.m
	rate := s.rateAt(s.slot)
	if floor := 0.01 * m.RatePerSlot; rate < floor {
		rate = floor
	}
	meanGap := 1 / (rate * m.Burstiness)
	var gap float64
	if m.Arrival == ArrivalGammaBurst {
		gap = gammaSample(s.rng, m.GapShape, meanGap/m.GapShape)
	} else {
		gap = weibullSample(s.rng, m.GapShape, meanGap/math.Gamma(1+1/m.GapShape))
	}
	g := int(math.Round(gap))
	if g < 1 {
		g = 1
	}
	s.slot += g
	s.batchLeft = s.geometricBatch()
	s.batchSlot = s.slot
}

// Next emits the next task, or false once n tasks have been produced.
// Arrival slots are non-decreasing by construction.
func (s *Stream) Next() (Task, bool) {
	if s.produced >= s.n {
		return Task{}, false
	}
	m := s.m
	for s.batchLeft == 0 {
		switch m.Arrival {
		case ArrivalPoisson:
			if k := poissonCount(s.rng, s.rateAt(s.slot)); k > 0 {
				s.batchLeft = k
				s.batchSlot = s.slot
			}
			s.slot++
		case ArrivalGammaBurst, ArrivalWeibull:
			s.nextGapBatch()
		default:
			// ArrivalBurst — the legacy per-slot draw order: one Float64
			// for the batch gate, then the geometric batch-size draws.
			pBatch := m.Burstiness * s.rateAt(s.slot)
			if pBatch > 1 {
				pBatch = 1
			}
			if s.rng.Float64() < pBatch {
				s.batchLeft = s.geometricBatch()
				s.batchSlot = s.slot
			}
			s.slot++
		}
	}
	cpu := s.sampleCPU()
	t := Task{
		ID:       s.produced,
		Arrival:  s.batchSlot,
		CPU:      cpu,
		Mem:      m.sampleMem(s.rng, cpu),
		Duration: m.sampleDuration(s.rng),
		Source:   m.ID,
		SLO:      m.SLO,
	}
	s.produced++
	s.batchLeft--
	return t, true
}

// poissonCount draws a Poisson(lambda) count via Knuth's product method.
// The iteration cap bounds pathological rates; the product underflows to 0
// long before it triggers for any realistic RatePerSlot.
func poissonCount(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	limit := math.Exp(-lambda)
	k, p := 0, 1.0
	for p > limit && k < 4096 {
		k++
		p *= rng.Float64()
	}
	return k - 1
}

// gammaSample draws from Gamma(shape, scale) via Marsaglia–Tsang squeeze,
// boosting shapes below one with the standard U^(1/shape) factor.
func gammaSample(rng *rand.Rand, shape, scale float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// weibullSample draws from Weibull(shape, scale) by inverting the CDF.
func weibullSample(rng *rand.Rand, shape, scale float64) float64 {
	u := 1 - rng.Float64() // in (0, 1]
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// CSVStream replays a trace in the ExportCSV format one task at a time, so
// arbitrarily large traces can drive the simulator without loading them into
// memory. Malformed records and arrival-order regressions stop the stream
// deterministically: Next returns false and Err reports the problem.
// ImportCSV is a drain of this reader.
type CSVStream struct {
	cr          *csv.Reader
	line        int
	lastArrival int
	count       int
	err         error
	done        bool
}

// NewCSVStream validates the header and returns a streaming reader over r.
func NewCSVStream(r io.Reader) (*CSVStream, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: read CSV header: %w", err)
	}
	if err := validateCSVHeader(header); err != nil {
		return nil, err
	}
	return &CSVStream{cr: cr, line: 1}, nil
}

// Next returns the next task in the trace, or false at EOF or on the first
// malformed record (see Err).
func (s *CSVStream) Next() (Task, bool) {
	if s.done {
		return Task{}, false
	}
	s.line++
	rec, err := s.cr.Read()
	if err == io.EOF {
		s.done = true
		return Task{}, false
	}
	if err != nil {
		s.fail(fmt.Errorf("workload: CSV line %d: %w", s.line, err))
		return Task{}, false
	}
	t, err := parseCSVTask(rec)
	if err != nil {
		s.fail(fmt.Errorf("workload: CSV line %d: %w", s.line, err))
		return Task{}, false
	}
	if s.count > 0 && t.Arrival < s.lastArrival {
		s.fail(fmt.Errorf("workload: CSV arrivals not sorted at row %d", s.count))
		return Task{}, false
	}
	s.lastArrival = t.Arrival
	s.count++
	return t, true
}

// Err returns the error that stopped the stream, or nil after a clean EOF.
func (s *CSVStream) Err() error { return s.err }

func (s *CSVStream) fail(err error) {
	s.err = err
	s.done = true
}
