package cloudsim

import (
	"testing"

	"repro/internal/workload"
)

// topkCluster is the 4-VM hand-computed selection fixture. Free-capacity
// classes at reset (cpuClass = bits.Len(freeCPU), memClass =
// bits.Len(⌊freeMem⌋)):
//
//	VM0 {2, 2}  → (2, 2)
//	VM1 {4, 8}  → (3, 4)
//	VM2 {2, 2}  → (2, 2)   (class tie with VM0 — index breaks it)
//	VM3 {8, 4}  → (4, 3)
func topkCluster() []VMSpec {
	return []VMSpec{{CPU: 2, Mem: 2}, {CPU: 4, Mem: 8}, {CPU: 2, Mem: 2}, {CPU: 8, Mem: 4}}
}

func topkConfig(k int) Config {
	cfg := DefaultConfig(topkCluster())
	cfg.TopK = k
	return cfg
}

// TestTopKSelectionHandComputed pins the candidate ranking — (cpuClass asc,
// memClass asc, VM index asc) with exact-fit filtering at class boundaries
// — against hand-worked tables on the 4-VM fixture.
func TestTopKSelectionHandComputed(t *testing.T) {
	cases := []struct {
		name string
		head workload.Task
		want []int32
	}{
		// {2,2}: classes (2,2). Class-(2,2): VM0 then VM2 (index tie-break);
		// class (3,4): VM1; VM3 at cpu class 4 falls off the k=3 table.
		{"tie-break-by-index", workload.Task{CPU: 2, Mem: 2, Duration: 1}, []int32{0, 2, 1}},
		// {1,1}: everything fits; same class walk as above.
		{"all-fit", workload.Task{CPU: 1, Mem: 1, Duration: 1}, []int32{0, 2, 1}},
		// {3,5}: cpu class 2 VMs are boundary misfits (freeCPU 2 < 3) and the
		// exact Fits check rejects them; VM1 (4,8) is the only fit — VM3 has
		// mem 4 < 5 despite memClass 3 ≥ hm 3 (boundary misfit, filtered).
		{"boundary-misfits-filtered", workload.Task{CPU: 3, Mem: 5, Duration: 1}, []int32{1, -1, -1}},
		// {8,4}: only VM3 fits (VM1's cpu class 3 < hc 4 is pruned wholesale).
		{"exact-largest", workload.Task{CPU: 8, Mem: 4, Duration: 1}, []int32{3, -1, -1}},
		// {5,3}: VM1 is in cpu class 3 = hc but freeCPU 4 < 5 (boundary
		// misfit); VM3 fits.
		{"cpu-boundary-misfit", workload.Task{CPU: 5, Mem: 3, Duration: 1}, []int32{3, -1, -1}},
		// Nothing fits: all slots void.
		{"nothing-fits", workload.Task{CPU: 9, Mem: 9, Duration: 1}, []int32{-1, -1, -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.head.ID = 0
			env := MustNewEnv(topkConfig(3), []workload.Task{tc.head})
			got := env.Candidates()
			if len(got) != 3 {
				t.Fatalf("candidate table length %d, want 3", len(got))
			}
			for s := range got {
				if got[s] != tc.want[s] {
					t.Fatalf("slot %d: got VM %d, want %d (table %v vs %v)",
						s, got[s], tc.want[s], got, tc.want)
				}
			}
		})
	}
}

// TestTopKRankingTracksPlacements pins the re-ranking after a placement
// changes a VM's classes: VM0 drops out once its free CPU hits zero.
func TestTopKRankingTracksPlacements(t *testing.T) {
	tasks := []workload.Task{
		{ID: 0, Arrival: 0, CPU: 2, Mem: 1, Duration: 5},
		{ID: 1, Arrival: 0, CPU: 1, Mem: 1, Duration: 1},
	}
	env := MustNewEnv(topkConfig(3), tasks)
	// Head {2,1}: same walk as the {2,2} table → [0, 2, 1].
	want := []int32{0, 2, 1}
	for s, vi := range env.Candidates() {
		if vi != want[s] {
			t.Fatalf("before placement, slot %d: got %d want %d", s, vi, want[s])
		}
	}
	// Place on candidate slot 0 = VM0, exhausting its CPU (free 0/1).
	env.Step(0)
	// Head {1,1}: VM0's cpu class 0 < hc 1 is pruned; VM2 (2,2), VM1 (3,4),
	// VM3 (4,3) in that order.
	want = []int32{2, 1, 3}
	for s, vi := range env.Candidates() {
		if vi != want[s] {
			t.Fatalf("after placement, slot %d: got %d want %d", s, vi, want[s])
		}
	}
	if got := env.CandidateVM(1); got != 1 {
		t.Fatalf("CandidateVM(1) = %d, want 1", got)
	}
}

// TestCandidateVMIdentityMode: with TopK ≥ len(VMs) the slot→VM mapping is
// the identity, void past the cluster.
func TestCandidateVMIdentityMode(t *testing.T) {
	cfg := topkConfig(4) // == len(VMs): identity, not ranked
	env := MustNewEnv(cfg, []workload.Task{{ID: 0, CPU: 1, Mem: 1, Duration: 1}})
	if env.Ranked() {
		t.Fatal("TopK == len(VMs) should not be ranked mode")
	}
	for i := 0; i < 4; i++ {
		if got := env.CandidateVM(i); got != i {
			t.Fatalf("identity CandidateVM(%d) = %d", i, got)
		}
	}
	cfg.TopK = 6
	cfg.PadVMs = 6
	env = MustNewEnv(cfg, []workload.Task{{ID: 0, CPU: 1, Mem: 1, Duration: 1}})
	if got := env.CandidateVM(5); got != -1 {
		t.Fatalf("identity CandidateVM(5) = %d, want -1 (void)", got)
	}
}

// TestRankedStateDimAndActions pins the fixed-width property: StateDim and
// NumActions depend on TopK, not on the cluster size.
func TestRankedStateDimAndActions(t *testing.T) {
	mk := func(n int) Config {
		cfg := DefaultConfig(tieredCluster(n))
		cfg.TopK = 8
		cfg.UtilBuckets = 10
		return cfg
	}
	small, large := mk(20), mk(500)
	if StateDim(small) != StateDim(large) {
		t.Fatalf("StateDim grew with cluster: %d vs %d", StateDim(small), StateDim(large))
	}
	if NumActions(small) != 9 || NumActions(large) != 9 {
		t.Fatalf("NumActions not fixed at k+1: %d / %d", NumActions(small), NumActions(large))
	}
	want := 8*NumResources + 8*small.PadVCPUs + queueDepth*NumResources + 2*10 + 3
	if StateDim(small) != want {
		t.Fatalf("ranked StateDim = %d, want %d", StateDim(small), want)
	}
}

// TestRankedHeuristicSlots pins the heuristic→candidate-slot mapping in
// ranked mode on the hand-computed fixture.
func TestRankedHeuristicSlots(t *testing.T) {
	tasks := []workload.Task{{ID: 0, Arrival: 0, CPU: 2, Mem: 2, Duration: 2}}
	env := MustNewEnv(topkConfig(3), tasks)
	// Candidates are [0, 2, 1]: slot 0 is the tightest fit, slot 2 the
	// loosest surfaced, and VM0 has the lowest VM index.
	if got := (BestFit{}).SelectAction(env); got != 0 {
		t.Fatalf("BestFit slot = %d, want 0", got)
	}
	if got := (WorstFit{}).SelectAction(env); got != 2 {
		t.Fatalf("WorstFit slot = %d, want 2", got)
	}
	if got := (FirstFit{}).SelectAction(env); got != 0 {
		t.Fatalf("FirstFit slot = %d, want 0", got)
	}
	rr := &RoundRobin{}
	if a, b := rr.SelectAction(env), rr.SelectAction(env); a != 0 || b != 1 {
		t.Fatalf("RoundRobin slots = %d,%d, want 0,1", a, b)
	}

	// After exhausting VM0 the head {1,1} candidates are [2, 1, 3]; the
	// lowest VM index (1) now sits in slot 1.
	env = MustNewEnv(topkConfig(3), []workload.Task{
		{ID: 0, Arrival: 0, CPU: 2, Mem: 1, Duration: 5},
		{ID: 1, Arrival: 0, CPU: 1, Mem: 1, Duration: 1},
	})
	env.Step(0)
	if got := (FirstFit{}).SelectAction(env); got != 1 {
		t.Fatalf("FirstFit slot after re-rank = %d, want 1 (VM1)", got)
	}

	// Class rank and fit disagree: VM0 {7,7} and VM1 {4,4} share the class
	// bucket (3,3), so the index orders them by VM index and the looser VM0
	// sits in slot 0. For a {2,2} head the tightest fit is VM1 (leftover
	// {2,2}) in slot 1 and the loosest is VM0 (leftover {5,5}) in slot 0:
	// the heuristics follow their definition, not the slot order.
	cfg := DefaultConfig([]VMSpec{{CPU: 7, Mem: 7}, {CPU: 4, Mem: 4}, {CPU: 16, Mem: 16}})
	cfg.TopK = 2
	env = MustNewEnv(cfg, []workload.Task{{ID: 0, Arrival: 0, CPU: 2, Mem: 2, Duration: 1}})
	if cand := env.Candidates(); cand[0] != 0 || cand[1] != 1 {
		t.Fatalf("mixed-rank candidates = %v, want [0 1]", cand)
	}
	if got := (BestFit{}).SelectAction(env); got != 1 {
		t.Fatalf("BestFit slot = %d, want 1 (VM1 {4,4} is the tighter fit)", got)
	}
	if got := (WorstFit{}).SelectAction(env); got != 0 {
		t.Fatalf("WorstFit slot = %d, want 0 (VM0 {7,7} is the looser fit)", got)
	}
}
