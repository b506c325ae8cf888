package tensor

import (
	"math/bits"
	"sync"
)

// smallClasses is how many power-of-two classes the pool keeps: class b
// holds buffers of 2^b elements, the largest 4096 float64s, 32 KiB, where
// Go's own allocator splits small objects from large.
const smallClasses = 13

// class returns the smallest power-of-two class that holds n elements.
func class(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// Pool recycles Matrix backing storage: the process's one matrix store. It
// takes the allocator and GC out of the training hot loop, where forward
// and backward passes churn through thousands of small, identically shaped
// matrices per update and the update borrows its gradients and staged
// state blocks for the call. A request of at most 4096 elements takes a
// power-of-two class, so every row count of a partial minibatch shares one
// buffer size; a larger one takes its exact element count, so a 136 x 64
// gradient is not rounded up to twice its size. A buffer whose capacity is
// no class is filed under the largest class it covers.
//
// Matrices returned by Get are always fully zeroed, even when recycled, so a
// dirty buffer released by one computation can never leak stale values into
// the next (in particular into accumulating kernels such as
// AddMatMulTransAInPlace). GetUninit skips that pass for callers that write
// every element first: the autograd tape's op outputs and gradient
// temporaries, the products' scratch, MLP.Infer's activations.
//
// A Pool is safe for concurrent use; the zero value is ready to use.
// Put-ting a matrix while any reference to it is still live is a caller bug,
// exactly like freeing live memory.
type Pool struct {
	mu    sync.Mutex
	small [smallClasses][]*Matrix
	large map[int][]*Matrix // by exact capacity

	// counters for tests and diagnostics (guarded by mu).
	gets, hits int64
}

// defaultPool backs the package-level Get/Put helpers and is shared by the
// autograd tapes, the nn gradients and inference path, and rl's staging.
var defaultPool Pool

// DefaultPool returns the process-wide shared pool.
func DefaultPool() *Pool { return &defaultPool }

// Get returns a zeroed rows x cols matrix from the shared default pool.
func Get(rows, cols int) *Matrix { return defaultPool.Get(rows, cols) }

// Put releases m back to the shared default pool.
func Put(m *Matrix) { defaultPool.Put(m) }

// Get returns a zeroed rows x cols matrix, recycling a free buffer of its
// class when one is available.
func (p *Pool) Get(rows, cols int) *Matrix {
	m, recycled := p.get(rows, cols)
	if recycled {
		m.Zero() // recycled buffers must never leak stale values
	}
	return m
}

// GetUninit returns a rows x cols matrix whose contents are unspecified: a
// recycled buffer keeps whatever values its previous owner left behind. Only
// callers that overwrite every element before reading any (the transpose
// scratch in MatMulTransBInto, a product's destination — the products never
// read it) may use it; everything else goes through Get, which zeroes
// defensively.
func (p *Pool) GetUninit(rows, cols int) *Matrix {
	m, _ := p.get(rows, cols)
	return m
}

func (p *Pool) get(rows, cols int) (m *Matrix, recycled bool) {
	if rows < 0 || cols < 0 {
		return New(rows, cols), false // defer to New's shape panic
	}
	need, size := rows*cols, rows*cols
	b := class(need)
	p.mu.Lock()
	p.gets++
	if b < smallClasses {
		size = 1 << b
		m, p.small[b] = p.pop(p.small[b])
	} else if l := p.large[need]; len(l) > 0 {
		m, p.large[need] = p.pop(l)
	}
	p.mu.Unlock()
	if m == nil {
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, need, size)}, false
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:need]
	return m, true
}

// pop takes the last matrix off free list l and counts the hit: nil when l
// is empty. p.mu must be held.
func (p *Pool) pop(l []*Matrix) (*Matrix, []*Matrix) {
	n := len(l)
	if n == 0 {
		return nil, l
	}
	p.hits++
	m := l[n-1]
	l[n-1] = nil
	return m, l[:n-1]
}

// Put releases m's backing storage for reuse. Nil and empty matrices are
// dropped; the caller must not use m afterwards.
func (p *Pool) Put(m *Matrix) {
	if m == nil || cap(m.Data) == 0 {
		return
	}
	c := cap(m.Data)
	m.Data = m.Data[:0]
	b := class(c)
	p.mu.Lock()
	if b < smallClasses {
		if 1<<b > c {
			b-- // the largest class the capacity covers
		}
		p.small[b] = append(p.small[b], m)
	} else {
		if p.large == nil {
			p.large = make(map[int][]*Matrix)
		}
		p.large[c] = append(p.large[c], m)
	}
	p.mu.Unlock()
}

// Stats reports how many Get calls the pool has served and how many were
// satisfied by a recycled buffer.
func (p *Pool) Stats() (gets, hits int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.hits
}
