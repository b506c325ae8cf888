package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/stats"
)

// A layer that did no work has no samples; its metrics read 0, not NaN, so
// these wrap internal/stats (which returns NaN for empty input).

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return stats.Percentile(vs, q)
}

// tailQuantile is the highest of p99/p95/p90 that still has at least ten
// samples beyond it (the choosing-metrics rule for latency tails); with fewer
// than 100 samples it is p90.
func tailQuantile(vs []float64) float64 {
	for _, c := range []float64{0.99, 0.95} {
		if float64(len(vs))*(1-c) >= 10 {
			return quantile(vs, c)
		}
	}
	return quantile(vs, 0.90)
}

func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, 0 when b is 0 (a layer that did no work reads 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest is the result fingerprint of one pass over a workload: FNV-64a over
// the IEEE-754 bits of every float fed to it. Two runs of the same seed must
// produce the same digest; so must the traced re-drive of a workload and the
// product entry point it shadows.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *digest) ints(vs ...int) {
	for _, v := range vs {
		d.floats(float64(v))
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// finite reports whether every value is a finite number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
