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

func TestPoolReshapesAcrossGets(t *testing.T) {
	p := new(Pool)
	m := p.Get(2, 16)
	m.Fill(7)
	p.Put(m)
	// A differently shaped request in the same size class must reuse the
	// buffer and still come back clean.
	r := p.Get(8, 4)
	if r.Rows != 8 || r.Cols != 4 || len(r.Data) != 32 {
		t.Fatalf("got %dx%d len %d", r.Rows, r.Cols, len(r.Data))
	}
	for _, v := range r.Data {
		if v != 0 {
			t.Fatalf("reshaped recycled buffer not zeroed: %v", v)
		}
	}
	if gets, hits := p.Stats(); gets != 2 || hits != 1 {
		t.Fatalf("stats gets=%d hits=%d, want 2/1", gets, hits)
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

func TestPoolSmallAndOversizeRequests(t *testing.T) {
	p := new(Pool)
	z := p.Get(0, 5)
	if z.Rows != 0 || z.Cols != 5 || len(z.Data) != 0 {
		t.Fatalf("zero-row get: %dx%d len %d", z.Rows, z.Cols, len(z.Data))
	}
	p.Put(z) // must not panic or corrupt the pool
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
				m := p.Get(1+rng.Intn(16), 1+rng.Intn(16))
				m.Fill(float64(i))
				p.Put(m)
			}
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if m := p.Get(4, 4); m.Data[0] != 0 {
		t.Fatalf("post-stress get not zeroed")
	}
}
