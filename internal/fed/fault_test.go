package fed

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/fedcore"
)

func TestParseFaultSpec(t *testing.T) {
	cases := []struct {
		in      string
		want    FaultSpec
		wantErr bool
	}{
		{"", FaultSpec{}, false},
		{"drop=0.1", FaultSpec{Drop: 0.1}, false},
		{"drop=0.1,delay=0.05:20ms,dup=0.02,corrupt=0.01,seed=7",
			FaultSpec{Drop: 0.1, Delay: 0.05, DelayFor: 20 * time.Millisecond, Duplicate: 0.02, Corrupt: 0.01, Seed: 7}, false},
		{"delay=0.5", FaultSpec{Delay: 0.5}, false},
		{"drop=1.5", FaultSpec{}, true},
		{"drop=-0.1", FaultSpec{}, true},
		{"drop=0.6,delay=0.6", FaultSpec{}, true}, // probabilities sum > 1
		{"bogus=1", FaultSpec{}, true},
		{"drop", FaultSpec{}, true},
		{"seed=abc", FaultSpec{}, true},
		// NaN compares false against both bounds and would disable every
		// later draw; an explicit non-positive delay is an error, not the
		// 10ms default.
		{"drop=NaN", FaultSpec{}, true},
		{"drop=nan,dup=0.1", FaultSpec{}, true},
		{"delay=NaN:5ms", FaultSpec{}, true},
		{"corrupt=+Inf", FaultSpec{}, true},
		{"delay=0.1:-5ms", FaultSpec{}, true},
		{"delay=0.1:0s", FaultSpec{}, true},
		{"delay=0:-1s", FaultSpec{}, true},
	}
	for _, c := range cases {
		got, err := ParseFaultSpec(c.in)
		if (err != nil) != c.wantErr {
			t.Fatalf("ParseFaultSpec(%q) err=%v wantErr=%v", c.in, err, c.wantErr)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParseFaultSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	// A bare delay probability keeps the documented 10ms stall.
	spec, _ := ParseFaultSpec("delay=0.5")
	if d := NewFaultyTransport(PublicCriticTransport{}, spec).Spec.DelayFor; d != 10*time.Millisecond {
		t.Fatalf("bare delay stalls %v, want the 10ms default", d)
	}
}

// FuzzParseFaultSpec: whatever ParseFaultSpec accepts is a schedule draw can
// honour — every probability finite and in [0, 1], their sum at most 1, and
// no negative stall.
func FuzzParseFaultSpec(f *testing.F) {
	for _, s := range []string{
		"", "drop=0.1", "drop=0.1,delay=0.05:20ms,dup=0.02,corrupt=0.01,seed=7", "delay=0.5",
		"drop=NaN", "drop=nan,dup=0.1", "delay=0.1:-5ms", "delay=0.1:0s", "drop=0.6,delay=0.6",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseFaultSpec(s)
		if err != nil {
			return
		}
		sum := 0.0
		for _, p := range []float64{spec.Drop, spec.Delay, spec.Duplicate, spec.Corrupt} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("ParseFaultSpec(%q) accepted probability %v: %+v", s, p, spec)
			}
			sum += p
		}
		if sum > 1 {
			t.Fatalf("ParseFaultSpec(%q) accepted probabilities summing to %v", s, sum)
		}
		if spec.DelayFor < 0 {
			t.Fatalf("ParseFaultSpec(%q) accepted a negative stall %v", s, spec.DelayFor)
		}
	})
}

func TestFaultSpecActive(t *testing.T) {
	if (FaultSpec{Seed: 9}).Active() {
		t.Fatal("seed alone must not activate injection")
	}
	if !(FaultSpec{Drop: 0.01}).Active() {
		t.Fatal("drop probability should activate injection")
	}
}

func TestFaultyTransportPassThroughAtZeroProbability(t *testing.T) {
	a := newDualClient(t, 0, 100)
	plain := PublicCriticTransport{}
	faulty := NewFaultyTransport(PublicCriticTransport{}, FaultSpec{Seed: 3})

	want := append(Payload(nil), mustUpload(t, plain, a)...) // a's next Upload reuses its buffer
	got, err := faulty.Upload(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("zero-probability injector must be a bitwise pass-through")
		}
	}
	if err := faulty.Download(a, got); err != nil {
		t.Fatal(err)
	}
	if s := faulty.Stats(); s.Total() != 0 {
		t.Fatalf("no events should be injected: %+v", s)
	}
	if faulty.Name() != "faulty(public-critic)" {
		t.Fatalf("name %q", faulty.Name())
	}
}

func TestFaultyTransportDrop(t *testing.T) {
	a := newDualClient(t, 0, 101)
	faulty := NewFaultyTransport(PublicCriticTransport{}, FaultSpec{Drop: 1})
	if _, err := faulty.Upload(a); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("upload err %v, want injected fault", err)
	}
	if err := faulty.Download(a, Payload{1}); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("download err %v, want injected fault", err)
	}
	if s := faulty.Stats(); s.Drops != 2 {
		t.Fatalf("drops %d, want 2", s.Drops)
	}
}

func TestFaultyTransportCorruptLength(t *testing.T) {
	a := newDualClient(t, 0, 102)
	b := newDualClient(t, 1, 103)
	plain := PublicCriticTransport{}
	faulty := NewFaultyTransport(PublicCriticTransport{}, FaultSpec{Corrupt: 1})

	good := mustUpload(t, plain, a)
	bad, err := faulty.Upload(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != len(good)-1 {
		t.Fatalf("corrupt upload length %d, want %d", len(bad), len(good)-1)
	}
	// A corrupt-length download must be detected (error), never silently
	// installed, and must leave the target client unchanged.
	before := append(Payload(nil), mustUpload(t, plain, b)...)
	if err := faulty.Download(b, good); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("download err %v, want injected fault", err)
	}
	after := mustUpload(t, plain, b)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("corrupt download must not modify the client")
		}
	}
}

func TestFaultyTransportDuplicate(t *testing.T) {
	a := newDualClient(t, 0, 104)
	b := newDualClient(t, 1, 105)
	plain := PublicCriticTransport{}
	faulty := NewFaultyTransport(PublicCriticTransport{}, FaultSpec{Duplicate: 1})
	p, err := faulty.Upload(a)
	if err != nil {
		t.Fatal(err)
	}
	// Double-install must land on the same state as a single install.
	if err := faulty.Download(b, p); err != nil {
		t.Fatal(err)
	}
	got := mustUpload(t, plain, b)
	for i := range p {
		if got[i] != p[i] {
			t.Fatal("duplicate download must be idempotent")
		}
	}
	if s := faulty.Stats(); s.Duplicates != 2 {
		t.Fatalf("duplicates %d, want 2", s.Duplicates)
	}
}

func TestFaultyTransportDelay(t *testing.T) {
	a := newDualClient(t, 0, 106)
	faulty := NewFaultyTransport(PublicCriticTransport{}, FaultSpec{Delay: 1, DelayFor: time.Millisecond})
	var slept time.Duration
	faulty.sleep = func(d time.Duration) { slept += d }
	if _, err := faulty.Upload(a); err != nil {
		t.Fatal(err)
	}
	if slept != time.Millisecond {
		t.Fatalf("slept %v, want 1ms", slept)
	}
	if s := faulty.Stats(); s.Delays != 1 {
		t.Fatalf("delays %d", s.Delays)
	}
}

// TestPartialAggregation pins the k-of-n regime for every aggregator: a
// round that got k uploads aggregates exactly those k with equal weight
// (the participation-weighted mean), k=1 degenerates to that single
// upload, and a round nobody reached leaves the global payload unchanged.
func TestPartialAggregation(t *testing.T) {
	dim := 64
	mk := func(fill float64) Payload {
		p := make(Payload, dim)
		for i := range p {
			p[i] = fill + float64(i)*0.01
		}
		return p
	}
	all := []Payload{mk(1), mk(2), mk(4)}
	prev := mk(-3)
	meanOf := func(uploads []Payload) Payload {
		out := make(Payload, dim)
		for _, u := range uploads {
			for i, v := range u {
				out[i] += v / float64(len(uploads))
			}
		}
		return out
	}

	aggs := []struct {
		name string
		mk   func() Aggregator
		// exactMean is true when the aggregator's global payload must be
		// exactly the participation-weighted mean of the uploads (FedAvg,
		// and MFPO's first round, which initializes at the mean).
		exactMean bool
	}{
		{"FedAvg", func() Aggregator { return FedAvg{} }, true},
		{"MFPO", func() Aggregator { return NewMomentum(0.5) }, true},
		{"attention", func() Aggregator { return NewAttention(11) }, false},
	}
	for _, ac := range aggs {
		for k := 0; k <= len(all); k++ {
			uploads := all[:k]
			var arena fedcore.PayloadArena
			personalized, global := fedcore.AggregatePartialInto(ac.mk(), uploads, prev, &arena)
			if len(personalized) != k {
				t.Fatalf("%s k=%d: %d personalized payloads", ac.name, k, len(personalized))
			}
			if len(global) != dim {
				t.Fatalf("%s k=%d: global dim %d", ac.name, k, len(global))
			}
			switch {
			case k == 0:
				for i := range prev {
					if global[i] != prev[i] {
						t.Fatalf("%s k=0: global must carry over unchanged", ac.name)
					}
				}
			case k == 1:
				// One participant: every aggregator's weighted mean is that
				// single upload.
				for i := range global {
					if math.Abs(global[i]-uploads[0][i]) > 1e-9 {
						t.Fatalf("%s k=1: global differs from the sole upload at %d", ac.name, i)
					}
				}
			case ac.exactMean:
				want := meanOf(uploads)
				for i := range global {
					if math.Abs(global[i]-want[i]) > 1e-12 {
						t.Fatalf("%s k=%d: global is not the participation-weighted mean at %d: %v vs %v",
							ac.name, k, i, global[i], want[i])
					}
				}
			}
		}
	}

	// Identical uploads: any row-stochastic personalization (attention
	// included) must reproduce the common vector for every k ≥ 1.
	for _, ac := range aggs {
		same := []Payload{mk(5), mk(5)}
		var arena fedcore.PayloadArena
		_, global := fedcore.AggregatePartialInto(ac.mk(), same, prev, &arena)
		for i := range global {
			if math.Abs(global[i]-same[0][i]) > 1e-9 {
				t.Fatalf("%s: identical uploads must aggregate to themselves", ac.name)
			}
		}
	}
}

// TestRunRoundSurvivesTotalDropOut: with every transport call dropping,
// the round still completes — zero participants, global unchanged, and the
// report records the carnage. This is the all-clients-timed-out regime of
// the fault harness.
func TestRunRoundSurvivesTotalDropOut(t *testing.T) {
	clients := []*Client{newDualClient(t, 0, 110), newDualClient(t, 1, 111)}
	plain := PublicCriticTransport{}
	f, err := New(clients, plain, FedAvg{}, Options{K: 2, CommEvery: 1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	globalBefore := append(Payload(nil), f.Global...)
	// Swap in a transport that drops everything after the initial sync.
	f.Transport = NewFaultyTransport(plain, FaultSpec{Drop: 1})
	if err := f.RunRound(); err != nil {
		t.Fatal(err)
	}
	if f.Rounds != 1 || len(f.Reports) != 1 {
		t.Fatalf("rounds %d reports %d", f.Rounds, len(f.Reports))
	}
	rep := f.Reports[0]
	if rep.Participants != 0 || rep.UploadDrops != 2 || rep.DownloadDrops != 2 {
		t.Fatalf("report %+v", rep)
	}
	for i := range globalBefore {
		if f.Global[i] != globalBefore[i] {
			t.Fatal("global must carry over when every upload dropped")
		}
	}
}

// TestRunRoundDropsCorruptUploads: a corrupt-length upload is detected and
// the client skipped, never fed to the aggregator (which would panic on a
// ragged batch).
func TestRunRoundDropsCorruptUploads(t *testing.T) {
	clients := []*Client{newDualClient(t, 0, 112), newDualClient(t, 1, 113)}
	plain := PublicCriticTransport{}
	f, err := New(clients, plain, FedAvg{}, Options{K: 2, CommEvery: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	f.Transport = NewFaultyTransport(plain, FaultSpec{Corrupt: 1})
	if err := f.RunRound(); err != nil {
		t.Fatal(err)
	}
	rep := f.Reports[0]
	if rep.Participants != 0 || rep.UploadDrops != 2 {
		t.Fatalf("report %+v", rep)
	}
}

// TestDeterminismGolden runs the same 2-client, 3-round federation twice —
// once plain, once through a probability-zero fault injector — and demands
// bitwise-identical final payloads and reward curves. This is the canary
// for any future RNG-threading regression in the round loop or injector.
func TestDeterminismGolden(t *testing.T) {
	run := func(injector bool) (Payload, [][]float64) {
		clients := []*Client{newDualClient(t, 0, 120), newDualClient(t, 1, 121)}
		var tr Transport = PublicCriticTransport{}
		if injector {
			tr = NewFaultyTransport(tr, FaultSpec{Seed: 99})
		}
		f, err := New(clients, tr, NewAttention(7), Options{K: 2, CommEvery: 1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			if err := f.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		curves := make([][]float64, len(clients))
		for i, c := range clients {
			curves[i] = append([]float64(nil), c.Rewards...)
		}
		return append(Payload(nil), f.Global...), curves
	}

	gA, cA := run(false)
	gB, cB := run(true)
	if len(gA) == 0 || len(gA) != len(gB) {
		t.Fatalf("global lengths %d vs %d", len(gA), len(gB))
	}
	for i := range gA {
		if gA[i] != gB[i] {
			t.Fatalf("global payloads diverge at %d: %v vs %v", i, gA[i], gB[i])
		}
	}
	for ci := range cA {
		if len(cA[ci]) != 3 || len(cA[ci]) != len(cB[ci]) {
			t.Fatalf("client %d curve lengths %d vs %d", ci, len(cA[ci]), len(cB[ci]))
		}
		for e := range cA[ci] {
			if cA[ci][e] != cB[ci][e] {
				t.Fatalf("client %d reward curves diverge at episode %d", ci, e)
			}
		}
	}
}

// nanUploads poisons one client's uploads with a NaN, every round.
type nanUploads struct {
	Transport
	poisoned int
}

func (tr nanUploads) Upload(c *Client) (Payload, error) {
	p, err := tr.Transport.Upload(c)
	if err == nil && c.ID == tr.poisoned {
		p[len(p)/2] = math.NaN()
	}
	return p, err
}

// TestPoisonedClientCannotCorruptGlobal: a PFRL-DM federation where one
// client uploads a NaN every round. The engine's accept point rejects the
// payload, so the global — and through the attention mix every other
// client's personalized critic — stays finite, and every report counts the
// drop. Without the gate one NaN scalar reaches every client within a round.
func TestPoisonedClientCannotCorruptGlobal(t *testing.T) {
	clients := []*Client{newDualClient(t, 0, 120), newDualClient(t, 1, 121), newDualClient(t, 2, 122)}
	f, err := New(clients, PublicCriticTransport{}, NewAttention(14), Options{K: 3, CommEvery: 1, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	f.Transport = nanUploads{Transport: PublicCriticTransport{}, poisoned: 1}
	for r := 0; r < 3; r++ {
		if err := f.RunRound(); err != nil {
			t.Fatal(err)
		}
		for i, v := range f.Global {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("round %d: global[%d] = %v", r, i, v)
			}
		}
		rep := f.Reports[r]
		if rep.UploadDrops != 1 || rep.Participants != 2 || rep.Selected != 3 || rep.Arrived != 3 {
			t.Fatalf("round %d report %+v, want the poisoned upload dropped", r, rep)
		}
	}
}
