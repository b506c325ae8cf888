package fedcore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Payload wire codec: the federation data plane's compression layer.
//
// A payload crosses the wire as one self-describing frame:
//
//	offset  size  field
//	0       4     magic "PFC1"
//	4       1     tier (TierIdentity | TierF32 | TierI16 | TierI8)
//	5       1     flags (bit 0: delta-encoded against RefTag's payload)
//	6       2     reserved (must be zero)
//	8       8     RefTag — identifies the delta reference; zero when absolute
//	16      4     dim — the payload's scalar count
//	20      ...   body (tier-dependent, exact length checked on decode)
//
// Bodies:
//
//   - identity: dim little-endian float64 bit patterns. Bit-exact, including
//     NaN payloads and signed zeros — the degradation-pin tier.
//   - f32: dim float32s (round-to-nearest), halving the wire volume.
//   - i16/i8: per-block symmetric quantization. Values are split into
//     blocks of quantBlock scalars; each block stores one float32 scale
//     (maxAbs/32767 or /127) followed by the quantized integers, so a block
//     costs 2·n+4 (i16) or n+4 (i8) bytes. Scales adapt per block, which
//     keeps the error proportional to the local dynamic range.
//
// Delta encoding subtracts a reference payload (the last model this client
// installed) before quantization. It does not change the frame size — the
// win is accuracy: post-round parameter drift has a far smaller dynamic
// range than absolute parameters, so the per-block scales shrink and the
// lossy tiers bite less. The decoder adds the same reference back, which is
// why RefTag must match on both ends (the wire session, wire.go, falls back
// to absolute encoding on a mismatch rather than corrupting the round).
//
// Error feedback is client-side Encoder state: the residual r accumulates
// what quantization discarded, and each Encode transmits v + r instead of v,
// so the quantization error averages out across rounds instead of
// compounding (Seide et al.'s 1-bit SGD trick, standard in gradient
// compression). Identity encoding is exact and carries no residual.
const (
	frameMagic  = 0x31434650 // "PFC1" little-endian
	frameHeader = 20
	quantBlock  = 256
	// maxFrameDim bounds decoded allocations against hostile frames.
	maxFrameDim = 1 << 26

	flagDelta = 0x01
)

// Tier selects the wire precision of payload frames.
type Tier uint8

const (
	// TierIdentity ships raw float64 bits — bit-exact, 8 bytes/scalar.
	TierIdentity Tier = iota
	// TierF32 rounds to float32 — 4 bytes/scalar.
	TierF32
	// TierI16 quantizes to int16 with per-block float32 scales.
	TierI16
	// TierI8 quantizes to int8 with per-block float32 scales.
	TierI8

	numTiers
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierIdentity:
		return "identity"
	case TierF32:
		return "f32"
	case TierI16:
		return "i16"
	case TierI8:
		return "i8"
	}
	return fmt.Sprintf("Tier(%d)", uint8(t))
}

// ParseTier parses a tier name as accepted by the -codec flag.
func ParseTier(s string) (Tier, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "identity", "f64", "raw":
		return TierIdentity, nil
	case "f32", "float32":
		return TierF32, nil
	case "i16", "int16":
		return TierI16, nil
	case "i8", "int8":
		return TierI8, nil
	}
	return 0, fmt.Errorf("fedcore: unknown codec tier %q (want identity|f32|i16|i8)", s)
}

// CodecConfig selects the wire codec for a federation. The zero value is
// the degradation-pin setting: identity tier, absolute encoding — bit-exact
// framing that reproduces the uncompressed data plane.
type CodecConfig struct {
	// Tier is the wire precision.
	Tier Tier
	// Delta encodes uplink payloads as deltas against the client's last
	// installed model (falling back to absolute when no reference is
	// shared). Same frame size, smaller dynamic range under the lossy
	// tiers. Note that delta framing composes exactly only with lossless
	// content: subtract-then-add round-off makes identity+delta NOT
	// bit-transparent, so the pin configuration leaves Delta off.
	Delta bool
	// NoErrorFeedback disables the client-side residual accumulation under
	// the lossy tiers (the EXPERIMENTS.md ablation). The zero value keeps
	// error feedback on, which is what makes the lossy tiers convergent.
	NoErrorFeedback bool
}

// Header is the parsed frame prefix.
type Header struct {
	Tier   Tier
	Delta  bool
	RefTag uint64
	Dim    int
}

// bodyLen returns the exact body length for a tier and dim.
func bodyLen(tier Tier, dim int) int {
	blocks := (dim + quantBlock - 1) / quantBlock
	switch tier {
	case TierIdentity:
		return dim * 8
	case TierF32:
		return dim * 4
	case TierI16:
		return blocks*4 + dim*2
	case TierI8:
		return blocks*4 + dim
	}
	return -1
}

// FrameLen returns the total frame length (header + body) a payload of dim
// scalars occupies at the given tier.
func FrameLen(tier Tier, dim int) int { return frameHeader + bodyLen(tier, dim) }

// MaxFrameLen is the longest frame PeekHeader accepts: an identity-tier
// payload of the largest dim. A transport can refuse a longer frame before
// reading it.
const MaxFrameLen = frameHeader + 8*maxFrameDim

// Frame decode errors. ErrBadFrame covers every malformed-frame condition;
// ErrRefMismatch is the delta-reference disagreement the wire session
// (wire.go) recovers from by re-encoding absolutely.
var (
	ErrBadFrame    = errors.New("fedcore: bad payload frame")
	ErrRefMismatch = errors.New("fedcore: delta frame references an unknown payload")
)

// PeekHeader parses and validates the frame prefix without decoding the
// body. It never panics on hostile input.
func PeekHeader(frame []byte) (Header, error) {
	if len(frame) < frameHeader {
		return Header{}, fmt.Errorf("%w: %d bytes, want at least %d", ErrBadFrame, len(frame), frameHeader)
	}
	if m := binary.LittleEndian.Uint32(frame[0:4]); m != frameMagic {
		return Header{}, fmt.Errorf("%w: magic %#08x", ErrBadFrame, m)
	}
	tier := Tier(frame[4])
	if tier >= numTiers {
		return Header{}, fmt.Errorf("%w: unknown tier %d", ErrBadFrame, uint8(tier))
	}
	flags := frame[5]
	if flags&^flagDelta != 0 {
		return Header{}, fmt.Errorf("%w: unknown flags %#02x", ErrBadFrame, flags)
	}
	if frame[6] != 0 || frame[7] != 0 {
		return Header{}, fmt.Errorf("%w: nonzero reserved bytes", ErrBadFrame)
	}
	dim := binary.LittleEndian.Uint32(frame[16:20])
	if dim == 0 || dim > maxFrameDim {
		return Header{}, fmt.Errorf("%w: dim %d out of range", ErrBadFrame, dim)
	}
	h := Header{
		Tier:   tier,
		Delta:  flags&flagDelta != 0,
		RefTag: binary.LittleEndian.Uint64(frame[8:16]),
		Dim:    int(dim),
	}
	if want := frameHeader + bodyLen(tier, h.Dim); len(frame) != want {
		return Header{}, fmt.Errorf("%w: %d bytes for tier %s dim %d, want %d", ErrBadFrame, len(frame), tier, h.Dim, want)
	}
	return h, nil
}

// DecodeFrame decodes one frame into dst (reused when its capacity allows,
// so steady-state decoding allocates nothing) and returns the decoded
// payload and parsed header. Delta frames require ref, the payload RefTag
// refers to, with matching length; the caller is responsible for checking
// RefTag against its bookkeeping before trusting ref. Every malformed input
// returns an error wrapping ErrBadFrame — never a panic — and writes nothing
// into dst: the frame is checked whole, every block scale included, before
// the first element is written, so a caller may decode straight into storage
// it still needs if the frame turns out bad (the wire's client end decodes
// into its delta reference).
func DecodeFrame(frame []byte, ref []float64, dst []float64) ([]float64, Header, error) {
	h, err := PeekHeader(frame)
	if err != nil {
		return dst[:0], Header{}, err
	}
	if h.Delta {
		if ref == nil {
			return dst[:0], Header{}, fmt.Errorf("%w: tag %#x", ErrRefMismatch, h.RefTag)
		}
		if len(ref) != h.Dim {
			return dst[:0], Header{}, fmt.Errorf("%w: reference has %d scalars, frame %d", ErrBadFrame, len(ref), h.Dim)
		}
	}
	body := frame[frameHeader:]
	switch h.Tier {
	case TierI16:
		err = checkScales(body, h.Dim, 2)
	case TierI8:
		err = checkScales(body, h.Dim, 1)
	}
	if err != nil {
		return dst[:0], Header{}, err
	}
	if cap(dst) < h.Dim {
		dst = make([]float64, h.Dim)
	}
	dst = dst[:h.Dim]
	switch h.Tier {
	case TierIdentity:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
		}
	case TierF32:
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[i*4:])))
		}
	case TierI16:
		off := 0
		for lo := 0; lo < h.Dim; lo += quantBlock {
			hi := min(lo+quantBlock, h.Dim)
			scale := math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))
			off += 4
			s := float64(scale)
			for i := lo; i < hi; i++ {
				q := int16(binary.LittleEndian.Uint16(body[off:]))
				off += 2
				dst[i] = float64(q) * s
			}
		}
	case TierI8:
		off := 0
		for lo := 0; lo < h.Dim; lo += quantBlock {
			hi := min(lo+quantBlock, h.Dim)
			scale := math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))
			off += 4
			s := float64(scale)
			for i := lo; i < hi; i++ {
				dst[i] = float64(int8(body[off])) * s
				off++
			}
		}
	}
	if h.Delta {
		for i := range dst {
			dst[i] += ref[i]
		}
	}
	return dst, h, nil
}

// checkScales rejects a quantized body, width bytes per value, any of whose
// block scales is not finite.
func checkScales(body []byte, dim, width int) error {
	for lo, off := 0, 0; lo < dim; lo += quantBlock {
		if !finite32(math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))) {
			return fmt.Errorf("%w: non-finite block scale", ErrBadFrame)
		}
		off += 4 + width*(min(lo+quantBlock, dim)-lo)
	}
	return nil
}

func finite32(f float32) bool {
	return !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0)
}

// Encoder turns payloads into wire frames. It owns the per-client codec
// state — the delta reference, the error-feedback residual, and the frame
// buffer — so steady-state encoding allocates nothing. One Encoder per
// uplink client; a stateless downlink framer is an Encoder with Delta off.
// Not safe for concurrent use.
type Encoder struct {
	cfg CodecConfig

	ref    []float64
	refTag uint64
	hasRef bool

	residual []float64
	buf      []byte
}

// NewEncoder returns an encoder for the given codec configuration.
func NewEncoder(cfg CodecConfig) *Encoder { return &Encoder{cfg: cfg} }

// SetRef installs the delta reference — the payload this encoder's client
// just installed, under the tag both ends agreed on. The payload is copied,
// unless it is the reference's own storage already (what WireClient.Decode
// returned), which is adopted where it lies.
func (e *Encoder) SetRef(tag uint64, p []float64) {
	if len(p) == 0 || len(e.ref) != len(p) || &e.ref[0] != &p[0] {
		e.ref = append(e.ref[:0], p...)
	}
	e.refTag = tag
	e.hasRef = true
}

// ClearRef drops the delta reference; the next Encode is absolute.
func (e *Encoder) ClearRef() { e.hasRef = false }

// encodeInput is what a frame encodes, element by element: the payload,
// less the delta reference when there is one, plus the error-feedback
// residual when there is one.
type encodeInput struct {
	p, ref, residual []float64
}

// block returns elements [lo, hi) of the encoded vector: (p − ref) +
// residual, each operation rounded once, in that order, as the staged
// vector held them, written into dst; or, with neither a reference nor a
// residual, the payload's own elements, which the caller only reads. A block
// is at most quantBlock long, so dst lives on the caller's stack and nothing
// payload-sized is staged.
func (v encodeInput) block(dst *[quantBlock]float64, lo, hi int) []float64 {
	d, p := dst[:hi-lo], v.p[lo:hi]
	switch {
	case v.ref != nil && v.residual != nil:
		ref, res := v.ref[lo:hi], v.residual[lo:hi]
		for i := range d {
			d[i] = (p[i] - ref[i]) + res[i]
		}
	case v.ref != nil:
		ref := v.ref[lo:hi]
		for i := range d {
			d[i] = p[i] - ref[i]
		}
	case v.residual != nil:
		res := v.residual[lo:hi]
		for i := range d {
			d[i] = p[i] + res[i]
		}
	default:
		return p
	}
	return d
}

// Encode frames one payload. The returned slice is the encoder's internal
// buffer: valid until the next Encode, so callers that retain frames must
// copy. Under the lossy tiers the error-feedback residual updates as a side
// effect — each accepted frame should reach the server exactly once. The
// delta and the residual are folded in a block at a time, on the stack, so
// nothing payload-sized is staged; the caller's payload is only read.
func (e *Encoder) Encode(p []float64) []byte {
	dim := len(p)
	v := encodeInput{p: p}
	var flags byte
	var tag uint64
	if e.cfg.Delta && e.hasRef && len(e.ref) == dim {
		v.ref = e.ref
		flags |= flagDelta
		tag = e.refTag
	}
	if e.cfg.Tier != TierIdentity && !e.cfg.NoErrorFeedback { // every other tier is lossy
		if len(e.residual) != dim {
			if cap(e.residual) < dim {
				e.residual = make([]float64, dim)
			}
			e.residual = e.residual[:dim]
			clear(e.residual)
		}
		v.residual = e.residual
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

	var blk [quantBlock]float64
	switch e.cfg.Tier {
	case TierIdentity:
		for lo := 0; lo < dim; lo += quantBlock {
			for i, x := range v.block(&blk, lo, min(lo+quantBlock, dim)) {
				binary.LittleEndian.PutUint64(body[(lo+i)*8:], math.Float64bits(x))
			}
		}
	case TierF32:
		for lo := 0; lo < dim; lo += quantBlock {
			for i, x := range v.block(&blk, lo, min(lo+quantBlock, dim)) {
				f := float32(x)
				binary.LittleEndian.PutUint32(body[(lo+i)*4:], math.Float32bits(f))
				if v.residual != nil {
					v.residual[lo+i] = x - float64(f)
				}
			}
		}
	case TierI16:
		quantize(v, &blk, body, 32767, func(off int, q int32) int {
			binary.LittleEndian.PutUint16(body[off:], uint16(int16(q)))
			return off + 2
		})
	case TierI8:
		quantize(v, &blk, body, 127, func(off int, q int32) int {
			body[off] = byte(int8(q))
			return off + 1
		})
	}
	return e.buf
}

// quantize runs the per-block symmetric integer quantizer over v, writing
// one float32 scale plus the quantized values per block via put, and folds
// the round-off into v's residual when it has one. Each block's values are
// formed in blk (encodeInput.block) before any of its residuals is
// overwritten. The dequantized value is recomputed exactly as the decoder
// will (float64(q) · float64(float32 scale)), so the residual tracks the
// receiver's view bit-exactly.
func quantize(v encodeInput, blk *[quantBlock]float64, body []byte, qmax float64, put func(off int, q int32) int) {
	off := 0
	for lo := 0; lo < len(v.p); lo += quantBlock {
		b := v.block(blk, lo, min(lo+quantBlock, len(v.p)))
		maxAbs := 0.0
		for _, x := range b {
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
		for i, x := range b {
			q := int32(math.RoundToEven(x * inv))
			if float64(q) > qmax {
				q = int32(qmax)
			} else if float64(q) < -qmax {
				q = -int32(qmax)
			}
			off = put(off, q)
			if v.residual != nil {
				v.residual[lo+i] = x - float64(q)*s
			}
		}
	}
}
