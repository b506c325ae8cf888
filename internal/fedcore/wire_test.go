package fedcore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// wirePair is one client end wired to a server end by function calls — what
// fed.Federation does, without the engine, the agents or a transport.
type wirePair struct {
	t   *testing.T
	srv *WireServer
	cli *WireClient
	id  int
}

// down sends p to the client: the server end frames it (and rotates), the
// client end installs the decoded view with a load that returns loadErr.
func (w *wirePair) down(p Payload, loadErr error) (view Payload, tag uint64) {
	w.t.Helper()
	_, view, tag = w.srv.Frame(w.id, p)
	err := w.cli.Install(view, tag, func(got Payload) error {
		if len(got) != len(p) || &got[0] != &view[0] {
			w.t.Fatal("load was not handed the server end's decoded view")
		}
		return loadErr
	})
	if err != loadErr {
		w.t.Fatalf("Install returned %v, want load's %v", err, loadErr)
	}
	return append(Payload(nil), view...), tag
}

// up sends u to the server: the client end frames it, the server end decodes
// it. It returns the frame's header, a copy of the frame and the decode.
func (w *wirePair) up(u Payload) (Header, []byte, Payload, error) {
	w.t.Helper()
	frame := bytes.Clone(w.cli.Encode(u))
	h, err := PeekHeader(frame)
	if err != nil {
		w.t.Fatalf("client end produced a bad frame: %v", err)
	}
	got, err := w.srv.Decode(w.id, frame)
	return h, frame, got, err
}

// wantAbsolute sends u and requires an absolute frame that lands.
func (w *wirePair) wantAbsolute(when string, u Payload) {
	w.t.Helper()
	h, frame, got, err := w.up(u)
	if h.Delta || err != nil {
		w.t.Fatalf("%s: uplink delta=%v (tag %#x) err=%v, want an absolute frame that lands", when, h.Delta, h.RefTag, err)
	}
	want, _, _ := DecodeFrame(frame, nil, nil)
	requireSame(w.t, when, got, want)
}

// wantDelta sends u and requires a delta against tag that decodes bit-equal
// to ref + the frame's dequantized body, computed without the server end.
func (w *wirePair) wantDelta(when string, u Payload, tag uint64, ref Payload) {
	w.t.Helper()
	h, frame, got, err := w.up(u)
	if !h.Delta || h.RefTag != tag || err != nil {
		w.t.Fatalf("%s: uplink delta=%v tag %#x err=%v, want a delta against %#x that lands", when, h.Delta, h.RefTag, err, tag)
	}
	// The same body decoded as an absolute frame is the dequantized
	// difference; the delta decode must be exactly that plus the reference.
	frame[5] &^= flagDelta
	clear(frame[8:16])
	want, _, err := DecodeFrame(frame, nil, nil)
	if err != nil {
		w.t.Fatal(err)
	}
	for i := range want {
		want[i] += ref[i]
	}
	requireSame(w.t, when, got, want)
}

// wantMismatch sends u and requires the server end to disown the reference.
func (w *wirePair) wantMismatch(when string, u Payload, tag uint64) {
	w.t.Helper()
	h, _, _, err := w.up(u)
	if !h.Delta || h.RefTag != tag || !errors.Is(err, ErrRefMismatch) {
		w.t.Fatalf("%s: uplink delta=%v tag %#x err=%v, want a delta against %#x answered ErrRefMismatch", when, h.Delta, h.RefTag, err, tag)
	}
}

func requireSame(t *testing.T, when string, got, want Payload) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: decoded %d scalars, want %d", when, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: decoded[%d] = %v, want %v (bitwise)", when, i, got[i], want[i])
		}
	}
}

// TestWireSessionReferenceProtocol pins the rotate / adopt-or-clear /
// mismatch rules on the two ends alone, one script per delta codec: every
// step names the rule it holds, and the install kinds are the three DESIGN §7
// lists — tagged reply, out-of-band, failed.
func TestWireSessionReferenceProtocol(t *testing.T) {
	const dim = 300 // two quantization blocks, the second partial
	errLoad := errors.New("install failed")
	for _, cfg := range []CodecConfig{
		{Tier: TierIdentity, Delta: true},
		{Tier: TierI8, Delta: true},
		{Tier: TierI16, Delta: true, NoErrorFeedback: true},
	} {
		t.Run(fmt.Sprintf("%s_ef=%v", cfg.Tier, !cfg.NoErrorFeedback), func(t *testing.T) {
			w := &wirePair{t: t, srv: NewWireServer(cfg), cli: NewWireClient(cfg)}
			seed := int64(0)
			next := func() Payload { seed++; return testVector(seed, dim, 0.5) }

			// A fresh pair shares nothing: the first uplink is absolute.
			w.wantAbsolute("fresh pair", next())

			// Tagged reply, installed: adopted, so the next uplink is a delta
			// against exactly what was installed.
			view1, tag1 := w.down(next(), nil)
			if tag1 == 0 {
				t.Fatal("delta codec framed an untagged reply")
			}
			w.wantDelta("after a tagged install", next(), tag1, view1)

			// Rotation happens when the server end frames, not when the
			// client installs: a reply the client never saw (lost on the way)
			// leaves the client on tag1 and the server past it.
			_, _, tag2 := w.srv.Frame(w.id, next())
			if tag2 == tag1 {
				t.Fatal("framing a reply did not rotate the tag")
			}
			u := next()
			w.wantMismatch("after a lost reply", u, tag1)
			w.cli.Desynced()
			w.wantAbsolute("resend after the mismatch", u)

			// Failed tagged install: the client end knows the server has
			// rotated past its reference, so it clears at once — the next
			// uplink is absolute and no round trip is spent on a mismatch.
			view3, tag3 := w.down(next(), nil)
			w.wantDelta("reference re-established", next(), tag3, view3)
			w.down(next(), errLoad)
			w.wantAbsolute("after a failed tagged install", next())

			// Adoption waits for load to return nil: a frame encoded while
			// the install is still running is relative to the old reference.
			_, tag5 := w.down(next(), nil)
			p6 := next()
			_, view6, tag6 := w.srv.Frame(w.id, p6)
			view6 = append(Payload(nil), view6...)
			if err := w.cli.Install(view6, tag6, func(Payload) error {
				if h, _ := PeekHeader(w.cli.Encode(p6)); !h.Delta || h.RefTag != tag5 {
					t.Fatalf("mid-install uplink delta=%v tag %#x, want the old reference %#x", h.Delta, h.RefTag, tag5)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			w.wantDelta("after the install returned", next(), tag6, view6)

			// Out-of-band install (a rejoin resync): the server end has no
			// record of it, the client end goes absolute.
			w.cli.Desynced()
			w.wantAbsolute("after an out-of-band install", next())

			// Rejoin: the server end forgets the slot, so a delta from the
			// slot's previous life is a mismatch, recovered the same way.
			_, tag7 := w.down(next(), nil)
			w.srv.Forget(w.id)
			u = next()
			w.wantMismatch("after the server end forgot the client", u, tag7)
			w.cli.Desynced()
			w.wantAbsolute("resend after the rejoin", u)

			// Counting: a download is counted when it is framed — lost,
			// failed and installed alike — an upload only when the adapter
			// says it accepted it.
			frameLen := int64(FrameLen(cfg.Tier, dim))
			const framed = 7
			if c := w.srv.Comm(); c.DownloadBytes != framed*frameLen || c.DownloadScalars != framed*dim || c.UploadBytes != 0 || c.UploadScalars != 0 {
				t.Fatalf("comm %+v, want %d framed downloads of %d bytes and no accepted upload", c, framed, frameLen)
			}
			w.srv.Accepted(w.id)
			if c := w.srv.Comm(); c.UploadBytes != frameLen || c.UploadScalars != dim {
				t.Fatalf("comm %+v after one accepted upload", c)
			}
		})
	}
}

// TestWireUntaggedWhenDeltaOff: without delta there is no reference to keep —
// replies are untagged, installs (failed ones included) leave uplinks
// absolute.
func TestWireUntaggedWhenDeltaOff(t *testing.T) {
	cfg := CodecConfig{Tier: TierI8}
	w := &wirePair{t: t, srv: NewWireServer(cfg), cli: NewWireClient(cfg)}
	if _, tag := w.down(testVector(1, 40, 1), nil); tag != 0 {
		t.Fatalf("delta-off reply tagged %#x", tag)
	}
	w.wantAbsolute("after an install", testVector(2, 40, 1))
	w.down(testVector(3, 40, 1), errors.New("install failed"))
	w.wantAbsolute("after a failed install", testVector(4, 40, 1))
}

// TestWireServerSharesFramesNotReferences pins the encode-once cache and the
// hazard that comes with pooling its decoded view: clients sent the same
// payload share one frame and one view, but each client's reference is its
// own copy, so framing the next distinct payload cannot move it.
func TestWireServerSharesFramesNotReferences(t *testing.T) {
	const dim = 64
	cfg := CodecConfig{Tier: TierI8, Delta: true}
	srv := NewWireServer(cfg)
	a, b := &wirePair{t: t, srv: srv, cli: NewWireClient(cfg), id: 0}, &wirePair{t: t, srv: srv, cli: NewWireClient(cfg), id: 3}

	pa := testVector(1, dim, 1)
	viewA, tagA := a.down(pa, nil)
	fa, va, _ := srv.Frame(1, pa)
	fa2, va2, _ := srv.Frame(2, pa)
	if &fa[0] != &fa2[0] || &va[0] != &va2[0] {
		t.Fatal("the same payload was framed or decoded twice")
	}
	if got, _, err := DecodeFrame(fa, nil, nil); err != nil || !slices.Equal(got, va) {
		t.Fatalf("the view is not the frame's decode (err %v)", err)
	}

	// A distinct payload rewrites the frame buffer and the pooled view; the
	// references taken from the view must not move with it.
	viewB, tagB := b.down(testVector(2, dim, 3), nil)
	if slices.Equal(va, viewA) {
		t.Fatal("the view was not reused for the next distinct payload")
	}
	a.wantDelta("client 0 after client 3's install", testVector(3, dim, 1), tagA, viewA)
	b.wantDelta("client 3", testVector(4, dim, 1), tagB, viewB)

	// The cache key is the payload's address, so a commit that rewrites the
	// arena in place must reset it.
	if rounds := srv.NextRound(); rounds != 1 || srv.Comm().Rounds != 1 {
		t.Fatalf("NextRound counted %d rounds (comm %d), want 1", rounds, srv.Comm().Rounds)
	}
	copy(pa, testVector(5, dim, 1))
	if _, view, _ := srv.Frame(0, pa); slices.Equal(view, viewA) {
		t.Fatal("a rewritten payload was served from the cache after NextRound")
	}
}

// TestWireClientAddsNothingToTheEncoder: a frame the server end rejected costs
// the error-feedback residual exactly what it costs a bare Encoder driven
// through the same calls — the client end keeps no codec state of its own.
func TestWireClientAddsNothingToTheEncoder(t *testing.T) {
	const dim = 300
	cfg := CodecConfig{Tier: TierI8, Delta: true}
	cli, bare := NewWireClient(cfg), NewEncoder(cfg)
	ref, u := testVector(1, dim, 1), testVector(2, dim, 1)

	if err := cli.Install(ref, 5, func(Payload) error { return nil }); err != nil {
		t.Fatal(err)
	}
	bare.SetRef(5, ref)
	if !bytes.Equal(cli.Encode(u), bare.Encode(u)) {
		t.Fatal("delta frames differ")
	}
	// The server end answers ErrRefMismatch; the resend is absolute.
	cli.Desynced()
	bare.ClearRef()
	if !bytes.Equal(cli.Encode(u), bare.Encode(u)) {
		t.Fatal("absolute resend differs from the bare encoder's")
	}
}
