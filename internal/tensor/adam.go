package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// adamUpdate applies one element-wise Adam step over flat parameter storage:
//
//	g = g*scale
//	m = beta1*m + (1-beta1)*g
//	v = beta2*v + (1-beta2)*g*g
//	p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
//
// bc1 and bc2 are the bias-correction terms 1-beta^t, computed once per step
// by the caller. scale is the gradient-norm clip's factor (1 when the
// gradient is not clipped, an exact multiply): each gradient element is
// multiplied by it as it is loaded, the one rounding a rescaling pass over
// the gradient would have stored. All four slices must have the same length.
//
// The gradient g is consumed and cleared: every element is zero on return,
// folded into the same pass over the data so the caller skips a separate
// zeroing sweep before the next backward accumulation. The AVX-512 fast
// path transcribes the scalar loop's exact float op order using only
// correctly-rounded instructions, so results are bitwise identical either
// way (pinned by TestAdamUpdateSIMDMatchesScalar).
func adamUpdate(p, g, m, v []float64, lr, beta1, beta2, eps, bc1, bc2, scale float64) {
	n := len(p)
	if len(g) != n || len(m) != n || len(v) != n {
		panic("tensor: adamUpdate slice length mismatch")
	}
	i := 0
	if simdEnabled {
		if n8 := n &^ 7; n8 > 0 {
			var step [8]float64 // stride 0: the steps are not kept
			adamCols(&p[0], &g[0], &m[0], &v[0], &step[0], 0, n8, beta1, 1-beta1, beta2, 1-beta2, bc1, bc2, lr, eps, scale)
			i = n8
		}
	}
	adamScalar(p[i:], g[i:], m[i:], v[i:], nil, lr, beta1, beta2, eps, bc1, bc2, scale)
}

// AdamUpdateRows is adamUpdate over a matrix of cols-wide rows, bit for
// bit, stepping each run of tied rows once. A row is tied when its
// gradient (before the scale), m and v hold the bits of the row above's (the first-layer rows
// fed by an observation's padded inputs, DESIGN §8): its new m and v, and
// the amount subtracted from p, are then the row above's too. The run's
// first row takes adamCols, which also stores that amount in step; each
// other row subtracts the stored step from its own p, copies m and v, and
// clears its gradient, skipping the divides and the square root. Rows that
// are not tied take adamUpdate, one call per stretch of them, so a matrix
// without ties is one adamUpdate. step is scratch of at least cols
// elements.
func AdamUpdateRows(p, g, m, v, step []float64, cols int, lr, beta1, beta2, eps, bc1, bc2, scale float64) {
	n := len(p)
	if len(g) != n || len(m) != n || len(v) != n {
		panic("tensor: AdamUpdateRows slice length mismatch")
	}
	if cols < 1 || n%cols != 0 || len(step) < cols {
		panic(fmt.Sprintf("tensor: AdamUpdateRows wants rows of %d dividing %d and %d step scratch", cols, n, len(step)))
	}
	done := 0 // p[:done] has been stepped
	for r := 0; r+cols < n; {
		e := r + cols
		for e < n && math.Float64bits(g[e]) == math.Float64bits(g[e-cols]) && rowTied(g, m, v, e, cols) {
			e += cols
		}
		if e == r+cols {
			r = e
			continue
		}
		if done < r {
			adamUpdate(p[done:r], g[done:r], m[done:r], v[done:r], lr, beta1, beta2, eps, bc1, bc2, scale)
		}
		adamRun(p[r:e], g[r:e], m[r:e], v[r:e], step[:cols], lr, beta1, beta2, eps, bc1, bc2, scale)
		r, done = e, e
	}
	if done < n {
		adamUpdate(p[done:], g[done:], m[done:], v[done:], lr, beta1, beta2, eps, bc1, bc2, scale)
	}
}

// rowTied reports whether the row at offset off holds the gradient, m and
// v bits of the row before it: rowsEqual3 over the multiple-of-8 prefix,
// then a scalar tail. AdamUpdateRows compares the first gradient element
// before calling it, so an untied row usually costs that one compare.
func rowTied(g, m, v []float64, off, cols int) bool {
	a := off - cols
	n8 := 0
	if simdEnabled {
		n8 = cols &^ 7
	}
	if n8 > 0 && !rowsEqual3(&g[a], &m[a], &v[a], n8, cols) {
		return false
	}
	for j := a + n8; j < off; j++ {
		if math.Float64bits(g[j]) != math.Float64bits(g[j+cols]) ||
			math.Float64bits(m[j]) != math.Float64bits(m[j+cols]) ||
			math.Float64bits(v[j]) != math.Float64bits(v[j+cols]) {
			return false
		}
	}
	return true
}

// adamRun steps a run of tied rows of len(step) elements each: the first
// through adamCols, which keeps its steps, the rest from those steps.
func adamRun(p, g, m, v, step []float64, lr, beta1, beta2, eps, bc1, bc2, scale float64) {
	cols := len(step)
	n8 := 0
	if simdEnabled {
		n8 = cols &^ 7
	}
	if n8 > 0 {
		adamCols(&p[0], &g[0], &m[0], &v[0], &step[0], 1, n8, beta1, 1-beta1, beta2, 1-beta2, bc1, bc2, lr, eps, scale)
		adamTiedRows(&p[0], &g[0], &m[0], &v[0], &step[0], n8, cols, len(p)/cols)
	}
	if n8 == cols {
		return
	}
	adamScalar(p[n8:cols], g[n8:cols], m[n8:cols], v[n8:cols], step[n8:], lr, beta1, beta2, eps, bc1, bc2, scale)
	for o := cols; o < len(p); o += cols {
		for j := n8; j < cols; j++ {
			p[o+j] -= step[j]
			m[o+j], v[o+j], g[o+j] = m[j], v[j], 0
		}
	}
}

// adamScalar is the portable reference Adam kernel; the assembly fast paths
// must match it bitwise. Like them, it multiplies each gradient by scale as
// it loads it and clears g as it goes, and with a non-nil step it stores
// each element's step there, as adamCols does.
func adamScalar(p, g, m, v, step []float64, lr, beta1, beta2, eps, bc1, bc2, scale float64) {
	c1, c2 := 1-beta1, 1-beta2
	for j, gv := range g {
		gv *= scale
		m[j] = beta1*m[j] + c1*gv
		v[j] = beta2*v[j] + c2*gv*gv
		g[j] = 0
		mhat := m[j] / bc1
		vhat := v[j] / bc2
		s := lr * mhat / (math.Sqrt(vhat) + eps)
		if step != nil {
			step[j] = s
		}
		p[j] -= s
	}
}

// unsafeSlice reconstructs a []float64 of length n from a base pointer; used
// only by the pure-Go SIMD stand-ins, which receive pointer+stride arguments
// shaped for the assembly kernels.
func unsafeSlice(p *float64, n int) []float64 {
	return unsafe.Slice(p, n)
}

// offsetPtr returns p advanced by n elements.
func offsetPtr(p *float64, n int) *float64 {
	return (*float64)(unsafe.Add(unsafe.Pointer(p), uintptr(n)*unsafe.Sizeof(float64(0))))
}
