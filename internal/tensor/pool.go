package tensor

import "sync"

// poolBuckets is the number of size classes the pool tracks. Bucket b holds
// matrices whose backing slice has capacity in [2^b, 2^(b+1)); requests above
// the largest class bypass the pool entirely.
const poolBuckets = 26 // up to 2^25 elements ≈ 256 MiB of float64

// Pool recycles Matrix backing storage through size-bucketed free lists. It
// exists to take the allocator and GC out of the training hot loop: forward
// and backward passes churn through thousands of small, identically shaped
// matrices per update, and without reuse the allocator dominates the
// runtime of the simulate/learn loop.
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
	mu   sync.Mutex
	free [poolBuckets][]*Matrix

	// counters for tests and diagnostics (guarded by mu).
	gets, hits int64
}

// NewPool returns an empty pool. Equivalent to new(Pool); provided for
// symmetry with the rest of the package's constructors.
func NewPool() *Pool { return new(Pool) }

// defaultPool backs the package-level Get/Put helpers and is shared by the
// autograd tapes and the nn inference path.
var defaultPool Pool

// DefaultPool returns the process-wide shared pool.
func DefaultPool() *Pool { return &defaultPool }

// Get returns a zeroed rows x cols matrix from the shared default pool.
func Get(rows, cols int) *Matrix { return defaultPool.Get(rows, cols) }

// Put releases m back to the shared default pool.
func Put(m *Matrix) { defaultPool.Put(m) }

// bucketFor returns the smallest bucket whose capacity class (2^b) can hold
// n elements, or poolBuckets when n is too large to pool.
func bucketFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
		if b >= poolBuckets {
			return poolBuckets
		}
	}
	return b
}

// Get returns a zeroed rows x cols matrix, recycling a free buffer of a
// sufficient size class when one is available.
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
	need := rows * cols
	b := bucketFor(need)
	if b >= poolBuckets {
		return New(rows, cols), false
	}
	p.mu.Lock()
	p.gets++
	if n := len(p.free[b]); n > 0 {
		m = p.free[b][n-1]
		p.free[b][n-1] = nil
		p.free[b] = p.free[b][:n-1]
		p.hits++
	}
	p.mu.Unlock()
	if m == nil {
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, need, 1<<b)}, false
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:need]
	return m, true
}

// Put releases m's backing storage for reuse. Nil matrices and matrices too
// large (or too odd) to pool are dropped silently; the caller must not use m
// afterwards.
func (p *Pool) Put(m *Matrix) {
	if m == nil || cap(m.Data) == 0 {
		return
	}
	// File under the largest class the capacity fully covers, so a later Get
	// from that bucket is guaranteed enough room.
	b := 0
	for b+1 < poolBuckets && 1<<(b+1) <= cap(m.Data) {
		b++
	}
	m.Data = m.Data[:0]
	p.mu.Lock()
	p.free[b] = append(p.free[b], m)
	p.mu.Unlock()
}

// Stats reports how many Get calls the pool has served and how many were
// satisfied by a recycled buffer.
func (p *Pool) Stats() (gets, hits int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.hits
}
