package fedcore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func testVector(seed int64, n int, scale float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * scale
	}
	return v
}

func TestFrameLen(t *testing.T) {
	cases := []struct {
		tier Tier
		dim  int
		want int
	}{
		{TierIdentity, 1, 20 + 8},
		{TierIdentity, 1000, 20 + 8000},
		{TierF32, 1000, 20 + 4000},
		{TierI16, 256, 20 + 4 + 512},
		{TierI16, 257, 20 + 8 + 514},
		{TierI8, 256, 20 + 4 + 256},
		{TierI8, 1000, 20 + 16 + 1000},
	}
	for _, c := range cases {
		if got := FrameLen(c.tier, c.dim); got != c.want {
			t.Errorf("FrameLen(%v, %d) = %d, want %d", c.tier, c.dim, got, c.want)
		}
	}
	// The acceptance floor: int8 frames are at least 4x smaller than raw
	// float64 at realistic payload sizes.
	const dim = 34561
	if ratio := float64(dim*8) / float64(FrameLen(TierI8, dim)); ratio < 4 {
		t.Fatalf("i8 wire ratio %.2f, want >= 4", ratio)
	}
}

func TestIdentityRoundTripBitExact(t *testing.T) {
	p := testVector(1, 700, 3)
	// The identity tier must preserve every bit pattern, including the
	// pathological ones.
	p[0], p[1], p[2], p[3] = math.NaN(), math.Inf(1), math.Copysign(0, -1), 5e-324
	for _, delta := range []bool{false, true} {
		enc := NewEncoder(CodecConfig{Tier: TierIdentity, Delta: delta})
		var ref []float64
		if delta {
			ref = testVector(2, len(p), 1)
			enc.SetRef(7, ref)
		}
		frame := enc.Encode(p)
		got, h, err := DecodeFrame(frame, ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		if h.Tier != TierIdentity || h.Delta != delta || h.Dim != len(p) {
			t.Fatalf("header %+v", h)
		}
		for i := range p {
			// Delta framing subtracts/adds the reference, so only the
			// absolute path is held to bit-exactness (the pin config).
			if !delta && math.Float64bits(got[i]) != math.Float64bits(p[i]) {
				t.Fatalf("identity decode not bit-exact at %d: %v vs %v", i, got[i], p[i])
			}
			if delta && i >= 4 && math.Abs(got[i]-p[i]) > 1e-12 {
				t.Fatalf("identity+delta decode off at %d: %v vs %v", i, got[i], p[i])
			}
		}
	}
}

func TestF32RoundTrip(t *testing.T) {
	p := testVector(3, 513, 10)
	frame := NewEncoder(CodecConfig{Tier: TierF32}).Encode(p)
	if len(frame) != FrameLen(TierF32, len(p)) {
		t.Fatalf("frame %d bytes", len(frame))
	}
	got, _, err := DecodeFrame(frame, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if want := float64(float32(p[i])); got[i] != want {
			t.Fatalf("f32 decode at %d: %v, want %v", i, got[i], want)
		}
	}
}

func TestQuantRoundTripErrorBound(t *testing.T) {
	for _, tc := range []struct {
		tier Tier
		qmax float64
	}{{TierI16, 32767}, {TierI8, 127}} {
		p := testVector(4, 1000, 2)
		frame := NewEncoder(CodecConfig{Tier: tc.tier}).Encode(p)
		got, _, err := DecodeFrame(frame, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(p); lo += quantBlock {
			hi := min(lo+quantBlock, len(p))
			maxAbs := 0.0
			for _, x := range p[lo:hi] {
				maxAbs = math.Max(maxAbs, math.Abs(x))
			}
			// Half a quantization step per element, padded for the float32
			// scale round-off.
			bound := 0.51*maxAbs/tc.qmax + 1e-12
			for i := lo; i < hi; i++ {
				if err := math.Abs(got[i] - p[i]); err > bound {
					t.Fatalf("%v decode error %v at %d exceeds %v", tc.tier, err, i, bound)
				}
			}
		}
	}
}

// TestDeltaShrinksQuantError: with a reference close to the payload, delta
// framing shrinks the per-block dynamic range and therefore the i8 error —
// the whole point of delta + quantization composition.
func TestDeltaShrinksQuantError(t *testing.T) {
	ref := testVector(5, 800, 5)
	p := make([]float64, len(ref))
	for i := range p {
		p[i] = ref[i] + 0.001*math.Sin(float64(i))
	}
	sumErr := func(frame []byte, r []float64) float64 {
		got, _, err := DecodeFrame(frame, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for i := range p {
			s += math.Abs(got[i] - p[i])
		}
		return s
	}
	abs := sumErr(NewEncoder(CodecConfig{Tier: TierI8, NoErrorFeedback: true}).Encode(p), nil)
	denc := NewEncoder(CodecConfig{Tier: TierI8, Delta: true, NoErrorFeedback: true})
	denc.SetRef(1, ref)
	del := sumErr(denc.Encode(p), ref)
	if del*10 > abs {
		t.Fatalf("delta error %v not well under absolute error %v", del, abs)
	}
}

func TestDeltaFallsBackWithoutRef(t *testing.T) {
	enc := NewEncoder(CodecConfig{Tier: TierIdentity, Delta: true})
	p := testVector(6, 64, 1)
	h, err := PeekHeader(enc.Encode(p))
	if err != nil || h.Delta {
		t.Fatalf("no-ref encode should be absolute, got %+v, %v", h, err)
	}
	// A reference of the wrong length must also fall back.
	enc.SetRef(9, testVector(7, 32, 1))
	if h, err = PeekHeader(enc.Encode(p)); err != nil || h.Delta {
		t.Fatalf("wrong-dim ref should fall back to absolute, got %+v, %v", h, err)
	}
	// And after ClearRef.
	enc.SetRef(9, testVector(7, 64, 1))
	enc.ClearRef()
	if h, err = PeekHeader(enc.Encode(p)); err != nil || h.Delta {
		t.Fatalf("cleared ref should encode absolute, got %+v, %v", h, err)
	}
}

func TestDecodeDeltaNeedsMatchingRef(t *testing.T) {
	enc := NewEncoder(CodecConfig{Tier: TierIdentity, Delta: true})
	ref := testVector(8, 50, 1)
	enc.SetRef(3, ref)
	frame := enc.Encode(testVector(9, 50, 1))
	if _, _, err := DecodeFrame(frame, nil, nil); !errors.Is(err, ErrRefMismatch) {
		t.Fatalf("nil ref: %v, want ErrRefMismatch", err)
	}
	if _, _, err := DecodeFrame(frame, ref[:49], nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short ref: %v, want ErrBadFrame", err)
	}
	if _, h, err := DecodeFrame(frame, ref, nil); err != nil || h.RefTag != 3 {
		t.Fatalf("matching ref: %+v, %v", h, err)
	}
}

// TestErrorFeedbackConvergence: under a lossy tier the EF residual makes the
// time-average of what the server decodes converge to the true payload; with
// EF disabled the same bias repeats every round.
func TestErrorFeedbackConvergence(t *testing.T) {
	p := make([]float64, 300)
	for i := range p {
		p[i] = 0.05 + 0.1*math.Sin(float64(i)/7)
	}
	meanErr := func(noEF bool) float64 {
		enc := NewEncoder(CodecConfig{Tier: TierI8, NoErrorFeedback: noEF})
		const rounds = 64
		sum := make([]float64, len(p))
		for r := 0; r < rounds; r++ {
			got, _, err := DecodeFrame(enc.Encode(p), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				sum[i] += v
			}
		}
		e := 0.0
		for i := range p {
			e += math.Abs(sum[i]/rounds - p[i])
		}
		return e / float64(len(p))
	}
	withEF, withoutEF := meanErr(false), meanErr(true)
	if withEF*4 > withoutEF {
		t.Fatalf("error feedback mean error %v not well under %v", withEF, withoutEF)
	}
}

func TestPeekHeaderRejects(t *testing.T) {
	valid := NewEncoder(CodecConfig{Tier: TierI16}).Encode(testVector(10, 300, 1))
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":          {},
		"short header":   valid[:19],
		"bad magic":      mut(func(b []byte) { b[0] = 'X' }),
		"bad tier":       mut(func(b []byte) { b[4] = byte(numTiers) }),
		"bad flags":      mut(func(b []byte) { b[5] = 0x80 }),
		"reserved bytes": mut(func(b []byte) { b[6] = 1 }),
		"zero dim":       mut(func(b []byte) { binary.LittleEndian.PutUint32(b[16:20], 0) }),
		"huge dim":       mut(func(b []byte) { binary.LittleEndian.PutUint32(b[16:20], maxFrameDim+1) }),
		"truncated body": valid[:len(valid)-1],
		"oversized body": append(append([]byte(nil), valid...), 0),
		"dim mismatch":   mut(func(b []byte) { binary.LittleEndian.PutUint32(b[16:20], 299) }),
	}
	for name, frame := range cases {
		if _, err := PeekHeader(frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: %v, want ErrBadFrame", name, err)
		}
		if _, _, err := DecodeFrame(frame, nil, nil); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s via DecodeFrame: %v, want ErrBadFrame", name, err)
		}
	}
}

func TestDecodeRejectsNonFiniteScale(t *testing.T) {
	for _, tier := range []Tier{TierI16, TierI8} {
		frame := append([]byte(nil), NewEncoder(CodecConfig{Tier: tier}).Encode(testVector(11, 64, 1))...)
		binary.LittleEndian.PutUint32(frame[frameHeader:], math.Float32bits(float32(math.Inf(1))))
		if _, _, err := DecodeFrame(frame, nil, nil); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%v inf scale: %v, want ErrBadFrame", tier, err)
		}
	}
}

// TestDecodeFrameFailsWithoutWriting: a frame that fails on its last block's
// scale leaves dst bit-equal — every scale is checked before the first
// element is written — on both quantized tiers, absolute and delta, with dst
// long enough to be decoded in place. The wire's client end decodes into
// its delta reference and relies on it.
func TestDecodeFrameFailsWithoutWriting(t *testing.T) {
	const dim = 600 // three blocks, the last partial
	for _, tier := range []Tier{TierI16, TierI8} {
		for _, delta := range []bool{false, true} {
			enc := NewEncoder(CodecConfig{Tier: tier, Delta: delta, NoErrorFeedback: true})
			ref := testVector(21, dim, 1)
			if delta {
				enc.SetRef(4, ref)
			}
			frame := bytes.Clone(enc.Encode(testVector(22, dim, 1)))
			lastScale := frameHeader + bodyLen(tier, 2*quantBlock)
			binary.LittleEndian.PutUint32(frame[lastScale:], math.Float32bits(float32(math.NaN())))

			dst := testVector(23, dim, 5)
			dst[0] = math.Copysign(0, -1)
			before := bytes.Clone(float64Bytes(dst))
			got, _, err := DecodeFrame(frame, ref, dst)
			if !errors.Is(err, ErrBadFrame) || len(got) != 0 {
				t.Fatalf("%v delta=%v: err %v, %d scalars, want ErrBadFrame and none", tier, delta, err, len(got))
			}
			if !bytes.Equal(float64Bytes(dst), before) {
				t.Fatalf("%v delta=%v: a failed decode wrote into dst", tier, delta)
			}
		}
	}
}

// float64Bytes returns v's bit patterns, little-endian.
func float64Bytes(v []float64) []byte {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// TestEncoderMatchesStagingReference holds the Encoder, which stages
// nothing, to the staging one it replaced: over six rounds of drifting
// payloads, every frame byte-equal and the residual bit-equal after every
// round, on the four tiers, delta on and off, error feedback on and off,
// with a reference of the payload's length, one of the wrong length (the
// absolute fallback) and none, at dims that are and are not a multiple of
// quantBlock, with ±0, ±Inf and NaN planted in payload and reference.
func TestEncoderMatchesStagingReference(t *testing.T) {
	for _, tier := range []Tier{TierIdentity, TierF32, TierI16, TierI8} {
		for _, delta := range []bool{false, true} {
			for _, noEF := range []bool{false, true} {
				for _, dim := range []int{1, 255, 256, 600, 1024} {
					for _, refLen := range []int{dim, dim + 1, 0} {
						cfg := CodecConfig{Tier: tier, Delta: delta, NoErrorFeedback: noEF}
						enc, ref := NewEncoder(cfg), newStagingEncoder(cfg)
						if refLen > 0 {
							r := testVector(int64(dim), refLen, 0.5)
							r[refLen/2] = math.Copysign(0, -1)
							enc.SetRef(7, r)
							ref.SetRef(7, r)
						}
						for round := 0; round < 6; round++ {
							p := testVector(int64(100*dim+round), dim, 1+float64(round))
							p[0] = math.Copysign(0, -1)
							if round == 4 && dim > 3 {
								p[1], p[2], p[3] = math.Inf(1), math.NaN(), math.Inf(-1)
							}
							label := fmt.Sprintf("%v delta=%v noEF=%v dim=%d ref=%d round %d", tier, delta, noEF, dim, refLen, round)
							want := append([]byte(nil), ref.Encode(p)...)
							if got := enc.Encode(p); !bytes.Equal(got, want) {
								t.Fatalf("%s: frame differs from the staging encoder's", label)
							}
							if len(enc.residual) != len(ref.residual) {
								t.Fatalf("%s: residual of %d, staging %d", label, len(enc.residual), len(ref.residual))
							}
							for i, r := range ref.residual {
								if math.Float64bits(enc.residual[i]) != math.Float64bits(r) {
									t.Fatalf("%s: residual[%d] = %v, staging %v", label, i, enc.residual[i], r)
								}
							}
						}
					}
				}
			}
		}
	}
}

// stagingEncoder is the Encoder as it was before it folded the delta and
// the residual into its element loops: it staged p − ref, or p, in work and
// added the residual there. Kept verbatim (renamed) as the reference
// TestEncoderMatchesStagingReference holds the Encoder to.
type stagingEncoder struct {
	cfg CodecConfig

	ref    []float64
	refTag uint64
	hasRef bool

	residual []float64
	work     []float64
	buf      []byte
}

func newStagingEncoder(cfg CodecConfig) *stagingEncoder { return &stagingEncoder{cfg: cfg} }

// SetRef installs the delta reference — the payload this encoder's client
// just installed, under the tag both ends agreed on. The payload is copied.
func (e *stagingEncoder) SetRef(tag uint64, p []float64) {
	e.ref = append(e.ref[:0], p...)
	e.refTag = tag
	e.hasRef = true
}

// ClearRef drops the delta reference; the next Encode is absolute.
func (e *stagingEncoder) ClearRef() { e.hasRef = false }

// Encode frames one payload. The returned slice is the encoder's internal
// buffer: valid until the next Encode, so callers that retain frames must
// copy. Under the lossy tiers the error-feedback residual updates as a side
// effect — each accepted frame should reach the server exactly once.
func (e *stagingEncoder) Encode(p []float64) []byte {
	dim := len(p)
	v := p
	staged := false
	var flags byte
	var tag uint64
	if e.cfg.Delta && e.hasRef && len(e.ref) == dim {
		if cap(e.work) < dim {
			e.work = make([]float64, dim)
		}
		e.work = e.work[:dim]
		for i, x := range p {
			e.work[i] = x - e.ref[i]
		}
		v, staged = e.work, true
		flags |= flagDelta
		tag = e.refTag
	}
	useEF := e.cfg.Tier != TierIdentity && !e.cfg.NoErrorFeedback // every other tier is lossy
	if useEF {
		if len(e.residual) != dim {
			if cap(e.residual) < dim {
				e.residual = make([]float64, dim)
			}
			e.residual = e.residual[:dim]
			clear(e.residual)
		}
		if !staged {
			// Absolute lossy encode: stage v into work so the residual can
			// be folded in without touching the caller's payload.
			if cap(e.work) < dim {
				e.work = make([]float64, dim)
			}
			e.work = e.work[:dim]
			copy(e.work, v)
			v = e.work
		}
		for i := range v {
			v[i] += e.residual[i]
		}
	}

	need := FrameLen(e.cfg.Tier, dim)
	if cap(e.buf) < need {
		e.buf = make([]byte, need)
	}
	e.buf = e.buf[:need]
	binary.LittleEndian.PutUint32(e.buf[0:4], frameMagic)
	e.buf[4] = byte(e.cfg.Tier)
	e.buf[5] = flags
	e.buf[6], e.buf[7] = 0, 0
	binary.LittleEndian.PutUint64(e.buf[8:16], tag)
	binary.LittleEndian.PutUint32(e.buf[16:20], uint32(dim))
	body := e.buf[frameHeader:]

	switch e.cfg.Tier {
	case TierIdentity:
		for i, x := range v {
			binary.LittleEndian.PutUint64(body[i*8:], math.Float64bits(x))
		}
	case TierF32:
		for i, x := range v {
			f := float32(x)
			binary.LittleEndian.PutUint32(body[i*4:], math.Float32bits(f))
			if useEF {
				e.residual[i] = x - float64(f)
			}
		}
	case TierI16:
		e.quantize(v, body, 32767, useEF, func(off int, q int32) int {
			binary.LittleEndian.PutUint16(body[off:], uint16(int16(q)))
			return off + 2
		})
	case TierI8:
		e.quantize(v, body, 127, useEF, func(off int, q int32) int {
			body[off] = byte(int8(q))
			return off + 1
		})
	}
	return e.buf
}

// quantize runs the per-block symmetric integer quantizer over v, writing
// one float32 scale plus the quantized values per block via put, and folds
// the round-off into the residual when error feedback is on. The dequantized
// value is recomputed exactly as the decoder will (float64(q) · float64(
// float32 scale)), so the residual tracks the receiver's view bit-exactly.
func (e *stagingEncoder) quantize(v []float64, body []byte, qmax float64, useEF bool, put func(off int, q int32) int) {
	off := 0
	for lo := 0; lo < len(v); lo += quantBlock {
		hi := min(lo+quantBlock, len(v))
		maxAbs := 0.0
		for _, x := range v[lo:hi] {
			if a := math.Abs(x); a > maxAbs {
				maxAbs = a
			}
		}
		scale := float32(maxAbs / qmax)
		binary.LittleEndian.PutUint32(body[off:], math.Float32bits(scale))
		off += 4
		s := float64(scale)
		inv := 0.0
		if s > 0 {
			inv = 1 / s
		}
		for i := lo; i < hi; i++ {
			q := int32(math.RoundToEven(v[i] * inv))
			if float64(q) > qmax {
				q = int32(qmax)
			} else if float64(q) < -qmax {
				q = -int32(qmax)
			}
			off = put(off, q)
			if useEF {
				e.residual[i] = v[i] - float64(q)*s
			}
		}
	}
}

// TestCodecSteadyStateAllocs: with the encoder and decode buffer warmed up,
// an encode/decode round trip allocates nothing at any tier.
func TestCodecSteadyStateAllocs(t *testing.T) {
	p := testVector(12, 2048, 1)
	for _, tier := range []Tier{TierIdentity, TierF32, TierI16, TierI8} {
		enc := NewEncoder(CodecConfig{Tier: tier})
		dst, _, err := DecodeFrame(enc.Encode(p), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() {
			dst, _, _ = DecodeFrame(enc.Encode(p), nil, dst)
		}); n != 0 {
			t.Errorf("%v round trip allocates %v/op in steady state", tier, n)
		}
	}
}

// FuzzDecodeFrame: hostile frames must produce errors, never panics or
// out-of-bounds reads, on both the refless and the referenced decode path,
// and a frame that fails writes nothing into the dst it was handed.
func FuzzDecodeFrame(f *testing.F) {
	p := testVector(13, 300, 2)
	for _, tier := range []Tier{TierIdentity, TierF32, TierI16, TierI8} {
		f.Add(append([]byte(nil), NewEncoder(CodecConfig{Tier: tier}).Encode(p)...))
	}
	denc := NewEncoder(CodecConfig{Tier: TierI8, Delta: true})
	denc.SetRef(17, p)
	f.Add(append([]byte(nil), denc.Encode(p)...))
	f.Add([]byte("PFC1 garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		// dst holds every dim the seeds and their mutants carry, so a
		// decode that failed after writing would show in it.
		dst := testVector(int64(len(frame)), 512, 3)
		kept := float64Bytes(dst)
		dec, h, err := DecodeFrame(frame, nil, dst)
		if err != nil {
			if len(dec) != 0 {
				t.Fatal("failed decode returned data")
			}
			if !bytes.Equal(float64Bytes(dst), kept) {
				t.Fatal("failed decode wrote into dst")
			}
			if h, perr := PeekHeader(frame); perr == nil && h.Delta {
				// The referenced path fails the same way, and as cleanly.
				if _, _, err := DecodeFrame(frame, make([]float64, h.Dim), dst); err != nil && !bytes.Equal(float64Bytes(dst), kept) {
					t.Fatal("failed delta decode wrote into dst")
				}
			}
			return
		}
		if h.Dim != len(dec) {
			t.Fatalf("decoded %d scalars, header says %d", len(dec), h.Dim)
		}
		if len(frame) != FrameLen(h.Tier, h.Dim) {
			t.Fatalf("accepted %d-byte frame, want %d", len(frame), FrameLen(h.Tier, h.Dim))
		}
		// Exercise the delta path with a matching-length reference too.
		if _, _, err := DecodeFrame(frame, make([]float64, h.Dim), nil); err != nil {
			t.Fatalf("decode with reference failed after refless success: %v", err)
		}
	})
}
