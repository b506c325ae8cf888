package fedcore

import "fmt"

// The wire session — the protocol around the frame codec — as two end types:
// fed.Federation wires N client ends to one server end by function calls,
// fednet puts an RPC between them. Each rule is written once, on the method
// that applies it: rotate (WireServer.Frame), adopt or clear
// (WireClient.Install), mismatch (WireServer.Decode, WireClient.Desynced),
// count (WireServer.Accepted, Frame). DESIGN §7 "Wire session" has the prose.

// CommStats accounts for the data exchanged between the clients and the
// server: scalar counts for the §5.2 communication-cost comparison (PFRL-DM
// moves only public critics, FedAvg/MFPO full actor+critic models — roughly
// 3x the volume) and the measured bytes of the frames they crossed in.
type CommStats struct {
	// Rounds is the number of aggregation rounds accounted.
	Rounds int
	// UploadScalars / DownloadScalars are cumulative float64 counts across
	// all clients and rounds.
	UploadScalars   int64
	DownloadScalars int64
	// UploadBytes / DownloadBytes are the measured codec frame lengths of
	// the same traffic — what the tier put on the wire, header included.
	UploadBytes   int64
	DownloadBytes int64
}

// Total returns the total scalars moved in both directions.
func (s CommStats) Total() int64 { return s.UploadScalars + s.DownloadScalars }

// Bytes returns the measured wire volume: the sum of the frame lengths.
func (s CommStats) Bytes() int64 { return s.UploadBytes + s.DownloadBytes }

// RawBytes returns the volume the same traffic would occupy uncompressed,
// at 8 bytes per float64 scalar.
func (s CommStats) RawBytes() int64 { return s.Total() * 8 }

// CompressionRatio returns RawBytes/Bytes (1 when nothing has been measured;
// slightly below 1 for the identity tier, which pays the frame header).
func (s CommStats) CompressionRatio() float64 {
	if s.Bytes() == 0 {
		return 1
	}
	return float64(s.RawBytes()) / float64(s.Bytes())
}

// WireServer is the server end of one federation's wire session. Not safe
// for concurrent use: fednet.Server calls it under its lock.
type WireServer struct {
	codec CodecConfig
	// down frames every downlink absolutely and without a residual, so
	// identical payloads produce identical frames.
	down *Encoder

	// Encode-once cache keyed by payload identity (FedAvg and Momentum alias
	// every participant to one model): the payload, held so its address
	// cannot be reused; its frame, in down's buffer; its pooled decode — what
	// a client installs, so what references are taken from when lossy.
	src   Payload
	frame []byte
	view  Payload

	slots  []wireSlot
	refSeq uint64
	comm   CommStats
}

// wireSlot is one client's state: its delta reference (a copy of the view it
// was sent) under its tag (0 = none held), and the pooled upload decode
// buffer with the length of the frame last decoded into it.
type wireSlot struct {
	ref     Payload
	tag     uint64
	up      Payload
	upBytes int
}

// NewWireServer returns the server end for the given codec.
func NewWireServer(codec CodecConfig) *WireServer {
	return &WireServer{codec: codec, down: NewEncoder(CodecConfig{Tier: codec.Tier, NoErrorFeedback: true})}
}

// Codec returns the configuration client ends must be built with.
func (s *WireServer) Codec() CodecConfig { return s.codec }

// Comm returns the traffic and rounds counted so far.
func (s *WireServer) Comm() CommStats { return s.comm }

func (s *WireServer) slot(id int) *wireSlot {
	for id >= len(s.slots) {
		s.slots = append(s.slots, wireSlot{})
	}
	return &s.slots[id]
}

// Decode decodes one uplink frame, against the client's reference when it is
// a delta, into the client's pooled buffer (valid until its next Decode). A
// malformed frame is ErrBadFrame; a delta against a tag this end does not
// hold — a reply lost on the way, a rejoin — is ErrRefMismatch, answered by
// an absolute resend. Length and finiteness are the engine's to judge.
func (s *WireServer) Decode(id int, frame []byte) (Payload, error) {
	sl := s.slot(id)
	h, err := PeekHeader(frame)
	if err == nil && h.Delta && (sl.tag == 0 || sl.tag != h.RefTag) {
		err = fmt.Errorf("%w: client %d sent a delta against tag %#x", ErrRefMismatch, id, h.RefTag)
	}
	if err != nil {
		return nil, err
	}
	sl.up, _, err = DecodeFrame(frame, sl.ref, sl.up)
	sl.upBytes = len(frame)
	return sl.up, err
}

// Accepted counts the frame last decoded for the client: an upload is counted
// when the adapter accepts it for the round.
func (s *WireServer) Accepted(id int) {
	sl := s.slot(id)
	s.comm.UploadScalars += int64(len(sl.up))
	s.comm.UploadBytes += int64(sl.upBytes)
	mWireUpload.Add(uint64(sl.upBytes))
}

// Frame sends p to a client: it frames p (once per distinct payload), counts
// the download and, when delta is on, rotates the client's reference to the
// decoded view under a fresh tag — now, because the server end cannot know
// whether the client will install it. It returns the frame (for a client
// across a network), the decoded view (for one in this process, so nothing is
// decoded twice) and the tag to adopt the payload under (0 = delta off).
// Frame and view are this end's buffers, rewritten by the next distinct
// payload: a caller that retains the frame copies it.
func (s *WireServer) Frame(id int, p Payload) (frame []byte, view Payload, tag uint64) {
	if len(s.src) != len(p) || &s.src[0] != &p[0] {
		s.frame = s.down.Encode(p)
		dec, _, err := DecodeFrame(s.frame, nil, s.view)
		if err != nil {
			panic(fmt.Sprintf("fedcore: self-encoded frame failed to decode: %v", err))
		}
		s.src, s.view = p, dec
	}
	if s.codec.Delta {
		s.refSeq++
		tag = s.refSeq
		sl := s.slot(id)
		sl.ref, sl.tag = append(sl.ref[:0], s.view...), tag
	}
	s.comm.DownloadScalars += int64(len(p))
	s.comm.DownloadBytes += int64(len(s.frame))
	mWireDownload.Add(uint64(len(s.frame)))
	gCompression.Set(s.comm.CompressionRatio())
	return s.frame, s.view, tag
}

// NextRound is called by the adapter at every commit. It counts the round,
// which it returns, and drops the encode-once cache: the engine's arena is
// rewritten in place, so an address no longer identifies a payload.
func (s *WireServer) NextRound() int {
	s.comm.Rounds++
	s.src = nil
	return s.comm.Rounds
}

// Forget drops the client's reference (a rejoin): whatever a previous life
// of the slot installed is void, and a delta against it is a mismatch.
func (s *WireServer) Forget(id int) { s.slot(id).tag = 0 }

// WireClient is the client end: the uplink encoder, with its delta reference
// and error-feedback residual, and the pooled downlink decode buffer.
type WireClient struct {
	enc *Encoder
	dec Payload
}

// NewWireClient returns a client end holding no reference: its first uplink
// is absolute.
func NewWireClient(codec CodecConfig) *WireClient { return &WireClient{enc: NewEncoder(codec)} }

// Encode frames one upload, as a delta when a reference is held. The frame is
// valid until the next Encode; every call advances the lossy tiers' residual.
func (c *WireClient) Encode(p Payload) []byte { return c.enc.Encode(p) }

// Decode decodes one downlink frame into the pooled buffer.
func (c *WireClient) Decode(frame []byte) (p Payload, err error) {
	c.dec, _, err = DecodeFrame(frame, nil, c.dec)
	return c.dec, err
}

// Install loads a payload the server end sent under tag into the local
// model. It becomes the delta reference only once load succeeded; a failed
// load clears the reference at once — the server end rotated past it when it
// framed the payload, so a delta against it is a mismatch foretold. An
// untagged payload (delta off) is only loaded.
func (c *WireClient) Install(p Payload, tag uint64, load func(Payload) error) error {
	err := load(p)
	switch {
	case tag == 0:
	case err == nil:
		c.enc.SetRef(tag, p)
	default:
		c.enc.ClearRef()
	}
	return err
}

// Desynced records that the ends no longer share a reference — the client
// installed a payload out of band (a rejoin resync), or the server end
// answered ErrRefMismatch — so the next uplink is absolute.
func (c *WireClient) Desynced() { c.enc.ClearRef() }
