package fedcore

import "testing"

// TestReduceMeanIntoBitIdentical pins the kernel against a hand-computed
// table. The second column pins the accumulation order: left to right from
// zero, (1e16 + 1) − 1e16 is 0 in float64; a reduce that cancels the two
// large terms first (pairwise, say) gives 1.
func TestReduceMeanIntoBitIdentical(t *testing.T) {
	uploads := []Payload{{1, 1e16, -3}, {2, 1, 0.5}, {6, -1e16, 4}}
	want := Payload{3, 0, 0.5}
	dst := Payload{9, 9, 9} // stale contents must be overwritten
	ReduceMeanInto(dst, uploads)
	for j := range want {
		if dst[j] != want[j] {
			t.Fatalf("mean[%d] = %v, want %v", j, dst[j], want[j])
		}
	}
}

// TestWeightedMixIntoBitIdentical: hand-computed Eq. 21 mix. Row 2's second
// column pins the j-accumulation order the same way the mean's does.
func TestWeightedMixIntoBitIdentical(t *testing.T) {
	uploads := []Payload{{1, 1e16}, {2, 1}, {4, -1e16}}
	w := [][]float64{
		{1, 0, 0},
		{0.5, 0.25, 0.25},
		{1, 1, 1},
	}
	want := []Payload{{1, 1e16}, {2, 2.5e15}, {7, 0}}
	var arena PayloadArena
	dst := arena.Payloads(3, 2)
	for i := range dst {
		dst[i][0], dst[i][1] = 9, 9
	}
	WeightedMixInto(dst, w, uploads)
	for i := range want {
		for d := range want[i] {
			if dst[i][d] != want[i][d] {
				t.Fatalf("mix[%d][%d] = %v, want %v", i, d, dst[i][d], want[i][d])
			}
		}
	}
}

func TestReduceValidationPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero uploads", func() { ReduceMeanInto(make(Payload, 4), nil) })
	expectPanic("ragged uploads", func() {
		ReduceMeanInto(make(Payload, 4), []Payload{make(Payload, 4), make(Payload, 3)})
	})
	expectPanic("mix shape", func() {
		WeightedMixInto(make([]Payload, 2), [][]float64{{1}}, []Payload{make(Payload, 4)})
	})
	expectPanic("mix non-square", func() {
		var arena PayloadArena
		WeightedMixInto(arena.Payloads(1, 4), [][]float64{{1, 2}}, []Payload{make(Payload, 4)})
	})
}

func TestPayloadArenaReuse(t *testing.T) {
	var arena PayloadArena
	views := arena.Payloads(3, 100)
	if len(views) != 3 {
		t.Fatal("wrong view count")
	}
	// Distinct non-overlapping views over one slab.
	views[0][99], views[1][0] = 1, 2
	if views[0][99] != 1 || views[1][0] != 2 {
		t.Fatal("views overlap")
	}
	g := arena.Global(100)

	// Steady state: same shapes come from the same buffers, no allocation.
	if n := testing.AllocsPerRun(20, func() {
		arena.Payloads(3, 100)
		arena.Global(100)
		arena.Alias(3, g)
	}); n != 0 {
		t.Fatalf("warm arena allocates %v/op", n)
	}
	if again := arena.Payloads(3, 100); &again[0][0] != &views[0][0] {
		t.Fatal("warm arena did not reuse its slab")
	}

	aliased := arena.Alias(3, g)
	for _, v := range aliased {
		if &v[0] != &g[0] {
			t.Fatal("alias views must share the payload backing")
		}
	}
}
