package rl

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cloudsim"
	"repro/internal/workload"
)

// table3Env is a client of the paper's Table 3 at the benchmark's scale
// (capacities divided by 4): Client1's seven VMs of 2, 4 and 16 vCPUs in a
// federation padded to seven slots of 16 vCPUs, a 136-wide observation of
// which 74 positions are live.
func table3Env(tb testing.TB, tasks int, seed int64) *cloudsim.Env {
	var specs []cloudsim.VMSpec
	for _, g := range []struct {
		n, cpu int
		mem    float64
	}{{1, 2, 16}, {4, 4, 32}, {2, 16, 128}} {
		for range g.n {
			specs = append(specs, cloudsim.VMSpec{CPU: g.cpu, Mem: g.mem})
		}
	}
	cfg := cloudsim.DefaultConfig(specs)
	cfg.PadVCPUs, cfg.MaxCPU = 16, 16
	rng := rand.New(rand.NewSource(seed))
	env, err := cloudsim.NewEnv(cfg, cloudsim.ClampTasks(workload.SampleDataset(workload.Google, rng, tasks), cfg.VMs))
	if err != nil {
		tb.Fatal(err)
	}
	return env
}

// TestBufferStoresLiveWidth pins the buffer's footprint on a per-VM
// cluster: a Table-3-shaped client's episode is stored in chunks of 64 rows
// of its 74 live positions, not of the observation's 136, each state reads
// back as the observation it was, and a transition is 48 bytes.
func TestBufferStoresLiveWidth(t *testing.T) {
	if size := unsafe.Sizeof(Transition{}); size != 48 {
		t.Fatalf("a Transition is %d bytes, want 48", size)
	}
	env := table3Env(t, 200, 3)
	const width, live = 136, 74
	if env.StateDim() != width {
		t.Fatalf("the Table-3 client observes %d positions, want %d", env.StateDim(), width)
	}
	agent := NewPPO(DefaultConfig(width, env.NumActions()), rand.New(rand.NewSource(4)))
	var buf Buffer
	var observed [][]float64
	recorder := &recordEnv{Env: env, seen: &observed}
	CollectEpisode(recorder, agent, &buf)
	if buf.Len() < 2*stateChunkRows {
		t.Fatalf("an episode of %d steps: want at least two chunks", buf.Len())
	}
	if buf.layout.stride != live {
		t.Fatalf("the buffer stores rows of %d values, want the %d live positions", buf.layout.stride, live)
	}
	for i, c := range buf.chunks {
		if len(c) != stateChunkRows*live || cap(c) != stateChunkRows*live {
			t.Fatalf("chunk %d holds %d float64 (cap %d), want 64 × %d", i, len(c), cap(c), live)
		}
	}
	for i := range buf.Len() {
		requireBits(t, "stored state", buf.State(i, nil), observed[i])
	}
}

// recordEnv is a cloudsim.Env that keeps a copy of every observation the
// collector stores (every one but the post-terminal Observe, which is not
// made).
type recordEnv struct {
	*cloudsim.Env
	seen *[][]float64
}

func (e *recordEnv) Observe(dst []float64) []float64 {
	dst = e.Env.Observe(dst)
	*e.seen = append(*e.seen, append([]float64(nil), dst...))
	return dst
}

// TestBufferRejectsStateOfAnotherWidth pins the fail-fast check: a state
// whose width is not the buffer's panics at Add, and a collection from an
// environment of another width at CollectEpisode, each naming both widths,
// instead of deep inside an Update; an Update by an agent of another
// StateDim names both too. An emptied buffer takes any width again.
func TestBufferRejectsStateOfAnotherWidth(t *testing.T) {
	requirePanic := func(what string, fn func(), widths ...string) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			msg, _ := r.(string)
			if r == nil {
				t.Fatalf("%s: no panic", what)
			}
			for _, w := range widths {
				if !strings.Contains(msg, w) {
					t.Fatalf("%s: panic %q does not name width %s", what, msg, w)
				}
			}
		}()
		fn()
	}
	var buf Buffer
	buf.Add([]float64{1, 2, 3}, Transition{})
	requirePanic("Add", func() { buf.Add([]float64{1, 2, 3, 4}, Transition{}) }, "width-4", "width-3")
	requirePanic("CollectEpisode", func() {
		CollectEpisode(&stampEnv{dim: 5, horizon: 2}, stampAgent{}, &buf)
	}, "width-5", "width-3")
	agent := NewPPO(DefaultConfig(4, 2), rand.New(rand.NewSource(1)))
	requirePanic("Update", func() { agent.Update(&buf) }, "width-3", "StateDim 4")
	buf.Reset()
	buf.Add([]float64{1, 2, 3, 4}, Transition{})
	if agent.Update(&buf); buf.width() != 4 {
		t.Fatalf("an emptied buffer holds width-%d states after a width-4 Add", buf.width())
	}
}

// TestBufferKeepsBitsOffTheLiveMap pins what a layout may not lose: a state
// added from outside the collector that writes a position its layout holds
// as void, and an episode from an environment whose padding differs, move
// the buffer to storing every position — the rows stored before and after,
// on the collector's value lane too, all read back bit for bit.
func TestBufferKeepsBitsOffTheLiveMap(t *testing.T) {
	env := table3Env(t, 60, 5)
	agent := NewPPO(DefaultConfig(env.StateDim(), env.NumActions()), rand.New(rand.NewSource(6)))
	var buf Buffer
	var observed [][]float64
	CollectEpisode(&recordEnv{Env: env, seen: &observed}, agent, &buf)
	observed = observed[:buf.Len()]
	odd := buf.State(0, nil)
	odd[14+15] = 0.5 // VM 0's last vCPU slot of 16: it has 2, so void in every observation
	buf.Add(odd, Transition{})
	observed = append(observed, odd)
	if !buf.layout.dense() {
		t.Fatal("a state off the live map left the buffer storing live positions only")
	}
	for i := range buf.Len() {
		requireBits(t, "after the move", buf.State(i, nil), observed[i])
	}
	var again Buffer
	CollectEpisode(env, agent, &again)
	n := again.Len()
	stamp := &stampEnv{dim: env.StateDim(), horizon: 3 * stateChunkRows, base: -1}
	CollectEpisode(stamp, stampAgent{}, &again)
	if !again.layout.dense() {
		t.Fatal("an episode of another padding left the buffer storing the first one's live positions")
	}
	for i := n; i < again.Len(); i++ {
		s := again.Steps()[i]
		if want := float64(i-n) - 1; s.Value != want {
			t.Fatalf("step %d valued %v, want the stamp %v", i, s.Value, want)
		}
	}
}

// checkLiveMap drives env through an episode of uniformly random feasible
// actions and checks every observation against its live map: −1 at every
// position off the map, and compacting then expanding the observation
// under the map gives it back bit for bit. A ranked environment must
// report every position live.
func checkLiveMap(t *testing.T, env *cloudsim.Env, rng *rand.Rand, ranked bool) {
	t.Helper()
	live, void := env.LivePositions()
	width := env.StateDim()
	if math.Float64bits(void) != math.Float64bits(cloudsim.VoidMarker) {
		t.Fatalf("void is %v, want cloudsim.VoidMarker", void)
	}
	if ranked && len(live) != width {
		t.Fatalf("the ranked layout reports %d of %d positions live, want all", len(live), width)
	}
	layout := newLayout(width, live, void)
	isLive := make([]bool, width)
	for _, p := range live {
		isLive[p] = true
	}
	row := make([]float64, layout.stride)
	back := make([]float64, width)
	var obs []float64
	for step := 0; ; step++ {
		obs = env.Observe(obs)
		for p, x := range obs {
			if !isLive[p] && math.Float64bits(x) != math.Float64bits(cloudsim.VoidMarker) {
				t.Fatalf("step %d: position %d off the live map holds %v", step, p, x)
			}
		}
		if !layout.compact(row, obs) {
			t.Fatalf("step %d: the observation does not compact under its own map", step)
		}
		layout.expand(back, row)
		requireBits(t, "compact then expand", back, obs)
		if env.Done() {
			return
		}
		var feasible []int
		for a, ok := range env.FeasibleActions() {
			if ok {
				feasible = append(feasible, a)
			}
		}
		env.Step(feasible[rng.Intn(len(feasible))])
	}
}

// randomLiveMapEnv builds a cluster of 1–12 VMs of random sizes under
// random caps from seed: per-VM, or — with topK — the ranked top-k layout
// over it (with the aggregate block when buckets > 0), on a short Google
// trace.
func randomLiveMapEnv(t *testing.T, seed int64, topK, buckets int) (*cloudsim.Env, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	specs := make([]cloudsim.VMSpec, 1+rng.Intn(12))
	for i := range specs {
		specs[i] = cloudsim.VMSpec{CPU: 1 + rng.Intn(16), Mem: float64(1 + rng.Intn(64))}
	}
	cfg := cloudsim.DefaultConfig(specs)
	cfg.PadVMs += rng.Intn(5)
	cfg.PadVCPUs += rng.Intn(9)
	cfg.MaxCPU = cfg.PadVCPUs
	cfg.MaxMem += float64(rng.Intn(32))
	cfg.TopK, cfg.UtilBuckets = topK, buckets
	tasks := cloudsim.ClampTasks(workload.SampleDataset(workload.Google, rng, 20+rng.Intn(60)), cfg.VMs)
	env, err := cloudsim.NewEnv(cfg, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return env, rng
}

// TestLiveMapProperty runs checkLiveMap over random per-VM clusters and
// caps, the top-k layout with more slots than VMs (per-VM, aggregate block
// live) and the ranked layout.
func TestLiveMapProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		env, rng := randomLiveMapEnv(t, seed, 0, 0)
		checkLiveMap(t, env, rng, false)
		n := len(env.Config().VMs)
		env, rng = randomLiveMapEnv(t, seed, 13, int(seed%4))
		checkLiveMap(t, env, rng, false)
		if n > 1 {
			env, rng = randomLiveMapEnv(t, seed, 1+int(seed)%(n-1), int(seed%3))
			checkLiveMap(t, env, rng, true)
		}
	}
}

// FuzzLiveMap runs checkLiveMap on the cluster a fuzzed seed draws, in the
// layout its k selects: per-VM (k = 0), top-k over more slots than VMs, or
// ranked.
func FuzzLiveMap(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(3), uint8(2))
	f.Add(int64(3), uint8(20), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, k, buckets uint8) {
		topK := int(k % 24)
		env, rng := randomLiveMapEnv(t, seed, topK, int(buckets%5))
		ranked := topK > 0 && topK < len(env.Config().VMs)
		checkLiveMap(t, env, rng, ranked)
	})
}

// requireBits fails unless got and want hold the same bits.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: position %d holds %v, want %v", what, i, got[i], want[i])
		}
	}
}
