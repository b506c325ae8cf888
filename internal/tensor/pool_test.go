package tensor

import (
	"math/rand"
	"testing"
)

func TestPoolGetZeroesRecycledBuffers(t *testing.T) {
	p := new(Pool)
	m := p.Get(4, 8)
	m.Fill(42)
	p.Put(m)
	r := p.Get(4, 8)
	for i, v := range r.Data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
	if r.Rows != 4 || r.Cols != 8 {
		t.Fatalf("recycled shape %dx%d, want 4x8", r.Rows, r.Cols)
	}
}

// TestPoolReshapesAcrossGets puts one matrix and gets another shape: a
// request of at most 4096 elements is served by the buffer of its
// power-of-two class, a larger one only by a buffer of its exact element
// count, whatever the shape, and a buffer whose capacity is no class (a
// tensor.New one) serves the largest class it covers. A reused buffer comes
// back clean.
func TestPoolReshapesAcrossGets(t *testing.T) {
	for _, c := range []struct {
		name     string
		put, get [2]int
		fresh    bool // put a New matrix, not one the pool made
		hit      bool
		wantCap  int // of the matrix Get returns
	}{
		{"class", [2]int{2, 16}, [2]int{8, 4}, false, true, 32},
		{"class rounds up", [2]int{3, 10}, [2]int{4, 8}, false, true, 32},
		{"largest class", [2]int{64, 64}, [2]int{32, 128}, false, true, 4096},
		{"exact", [2]int{64, 65}, [2]int{65, 64}, false, true, 4160},
		{"exact not another count", [2]int{64, 65}, [2]int{64, 66}, false, false, 4224},
		{"exact not a class", [2]int{64, 65}, [2]int{63, 65}, false, false, 4096},
		{"class not exact", [2]int{64, 64}, [2]int{64, 65}, false, false, 4160},
		{"no class files down", [2]int{3, 3}, [2]int{2, 4}, true, true, 9},
		{"no class never up", [2]int{3, 3}, [2]int{3, 3}, true, false, 16},
		{"fresh exact", [2]int{64, 65}, [2]int{13, 320}, true, true, 4160},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := new(Pool)
			var m *Matrix
			if c.fresh {
				m = New(c.put[0], c.put[1])
			} else {
				m = p.Get(c.put[0], c.put[1])
			}
			m.Fill(7)
			p.Put(m)
			r := p.Get(c.get[0], c.get[1])
			if r.Rows != c.get[0] || r.Cols != c.get[1] || len(r.Data) != c.get[0]*c.get[1] || cap(r.Data) != c.wantCap {
				t.Fatalf("got %dx%d len %d cap %d, want %dx%d cap %d", r.Rows, r.Cols, len(r.Data), cap(r.Data), c.get[0], c.get[1], c.wantCap)
			}
			if (r == m) != c.hit {
				t.Fatalf("reused the put buffer: %v, want %v", r == m, c.hit)
			}
			for _, v := range r.Data {
				if v != 0 {
					t.Fatalf("reshaped recycled buffer not zeroed: %v", v)
				}
			}
			wantGets, wantHits := int64(2), int64(0)
			if c.fresh {
				wantGets = 1
			}
			if c.hit {
				wantHits = 1
			}
			if gets, hits := p.Stats(); gets != wantGets || hits != wantHits {
				t.Fatalf("stats gets=%d hits=%d, want %d/%d", gets, hits, wantGets, wantHits)
			}
		})
	}
}

// TestDirtyRecycledBufferMatMulInto is the aliasing regression guard: a
// buffer released with stale values must not leak them into MatMulInto when
// recycled as a destination — not even through GetUninit, which keeps them:
// no product reads its destination.
func TestDirtyRecycledBufferMatMulInto(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 5, 7, 0, 1)
	b := RandNormal(rng, 7, 3, 0, 1)
	want := a.MatMulInto(b, New(5, 3))

	p := new(Pool)
	dirty := p.Get(5, 3)
	dirty.Fill(1e9) // poison
	p.Put(dirty)
	dst := p.GetUninit(5, 3)
	a.MatMulInto(b, dst)
	for i := range want.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("stale values leaked into MatMulInto at %d: got %v want %v", i, dst.Data[i], want.Data[i])
		}
	}
}

// TestPoolSmallAndOversizeRequests gets every size a fresh buffer of: an
// empty one, a class's power of two up to 4096 elements, and exactly
// rows·cols above; and a Put of each leaves the pool serving the next.
func TestPoolSmallAndOversizeRequests(t *testing.T) {
	p := new(Pool)
	for _, c := range []struct{ rows, cols, wantCap int }{
		{0, 5, 1}, {3, 3, 16}, {64, 64, 4096}, {64, 65, 4160}, {1000, 1000, 1000000},
	} {
		m := p.Get(c.rows, c.cols)
		if m.Rows != c.rows || m.Cols != c.cols || len(m.Data) != c.rows*c.cols || cap(m.Data) != c.wantCap {
			t.Fatalf("get %dx%d: %dx%d len %d cap %d, want cap %d", c.rows, c.cols, m.Rows, m.Cols, len(m.Data), cap(m.Data), c.wantCap)
		}
		p.Put(m) // must not panic or corrupt the pool
	}
	m := p.Get(3, 3)
	if len(m.Data) != 9 {
		t.Fatalf("len %d after zero-size put", len(m.Data))
	}
}

func TestPoolConcurrentGetPut(t *testing.T) {
	p := new(Pool)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				// Half small classes, half 64 x 60..67: both sides of
				// the 4096-element split.
				rows, cols := 1+rng.Intn(16), 1+rng.Intn(16)
				if i%2 == 1 {
					rows, cols = 64, 60+rng.Intn(8)
				}
				m := p.Get(rows, cols)
				m.Fill(float64(i))
				p.Put(m)
			}
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	for _, m := range []*Matrix{p.Get(4, 4), p.Get(64, 64), p.Get(64, 65)} {
		if m.Data[0] != 0 || m.Data[len(m.Data)-1] != 0 {
			t.Fatalf("post-stress %dx%d get not zeroed", m.Rows, m.Cols)
		}
	}
}
