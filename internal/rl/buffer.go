// Package rl implements the paper's learner, one agent type (PPO):
// clipped-surrogate PPO (Schulman et al. 2017, Eqs. 10–12 of the paper) with
// the critic φ, and — built by NewDualCriticPPO, the client-side half of
// PFRL-DM (§4.3) — a public critic ψ beside it, the two value estimates
// blended with an adaptive weight α derived from their respective losses
// (Eqs. 14–15), both regressed toward the observed returns (Eqs. 16–17).
// Nothing outside the package asks an agent which kind it is: it reads
// PublicCritic and Alpha.
package rl

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// Transition is one step of experience. The state its action was taken on
// is held by the Buffer that holds the transition (Buffer.State).
type Transition struct {
	Action  int
	Reward  float64
	LogProb float64 // log π_old(a|s) at collection time
	Value   float64 // V(s) estimate at collection time (blended for dual-critic)
	Done    bool    // episode ended after this transition (terminal or truncated)

	// Truncated marks a Done transition whose episode was cut by a horizon
	// or step cap rather than reaching a true terminal state. The MDP would
	// have continued, so advantage and return estimation bootstrap the tail
	// with Bootstrap instead of zero — a zero bootstrap at a cut treats the
	// remaining return as worthless and biases every advantage upstream of
	// the boundary.
	Truncated bool
	// Bootstrap is the critic's estimate V(s_{t+1}) of the state after a
	// truncated transition (recorded by the collector); ignored unless
	// Truncated is set.
	Bootstrap float64
}

// Buffer accumulates an on-policy trajectory batch: the transitions, and
// the state of each, stored at its live width (see Padded) and read back at
// full width, bit for bit.
type Buffer struct {
	steps []Transition

	// layout is how the states are stored: nil until the first one.
	// CollectEpisode sets it from its environment while the buffer is
	// empty; Reset keeps it.
	layout *stateLayout

	// chunks is the state storage: blocks of stateChunkRows rows of the
	// layout's live width, so a stored row is never moved and nothing is
	// over-grown. Row i, the state of transition i, is row
	// i%stateChunkRows of chunks[i/stateChunkRows]. rows counts the stored
	// states; Reset rewinds it and the next episode overwrites the same
	// memory. Rows [mark, rows) are those stored since the last takeRows.
	chunks     [][]float64
	rows, mark int
	// obs is the observation scratch CollectEpisode hands to env.Observe,
	// kept across episodes.
	obs []float64
	// values estimates the states of the episode being collected.
	values valueLane

	// gen counts Add and Reset calls: a value computed from the buffer's
	// transitions (a critic's loss, see PPO.CriticLosses) is still valid
	// while gen is unchanged.
	gen uint64
}

// stateChunkRows is how many observations one storage chunk holds. Small
// enough that rounding a short episode up to whole chunks costs little when
// a hundred clients each hold a buffer (at 256 rows swarm_104_async's peak
// RSS rose 4 %; at 64 it does not move), large enough that a long episode is
// a few dozen chunks.
const stateChunkRows = 64

// stateLayout maps a state of width positions to the row a Buffer stores:
// its live positions in order, as maximal runs of adjacent positions. Every
// other position holds void in every state stored under it, so expanding a
// row gives the state back bit for bit. A layout is never changed once
// built: a value lane may read rows under one while the collector moves the
// buffer to another.
type stateLayout struct {
	width  int
	void   float64
	runs   []span // the live positions, ascending
	stride int    // how many there are: the width of a stored row
	live   []int  // the positions as reported, nil for every position
}

// span is the positions [lo, hi).
type span struct{ lo, hi int }

// newLayout builds the layout of width-wide states whose live positions are
// live (ascending, in [0, width)); nil makes every position live.
func newLayout(width int, live []int, void float64) *stateLayout {
	l := &stateLayout{width: width, void: void, live: slices.Clone(live)}
	if live == nil {
		if width > 0 {
			l.runs = []span{{0, width}}
		}
		l.stride = width
		return l
	}
	prev := -1
	for _, p := range live {
		if p <= prev || p >= width {
			panic(fmt.Sprintf("rl: live position %d out of order or outside [0,%d)", p, width))
		}
		if n := len(l.runs); n > 0 && l.runs[n-1].hi == p {
			l.runs[n-1].hi++
		} else {
			l.runs = append(l.runs, span{p, p + 1})
		}
		prev = p
	}
	l.stride = len(live)
	return l
}

// fits reports whether l is the layout newLayout(width, live, void) builds.
func (l *stateLayout) fits(width int, live []int, void float64) bool {
	if l.width != width {
		return false
	}
	if live == nil {
		return l.live == nil
	}
	return math.Float64bits(l.void) == math.Float64bits(void) && slices.Equal(l.live, live)
}

// dense reports whether every position is live.
func (l *stateLayout) dense() bool { return l.stride == l.width }

// compact writes state's live values into row and reports whether every
// other position of state holds void; when it does not, row is not a
// faithful copy.
func (l *stateLayout) compact(row, state []float64) bool {
	at, off := 0, 0
	for _, r := range l.runs {
		if !allVoid(state[at:r.lo], l.void) {
			return false
		}
		off += copy(row[off:], state[r.lo:r.hi])
		at = r.hi
	}
	return allVoid(state[at:], l.void)
}

// expand writes the state row holds into dst, its first width elements:
// the live values where they lie and void everywhere else.
func (l *stateLayout) expand(dst, row []float64) {
	l.fillVoid(dst)
	l.scatter(dst, row)
}

// fillVoid writes void at every position of dst, its first width elements,
// that is not live.
func (l *stateLayout) fillVoid(dst []float64) {
	at := 0
	for _, r := range l.runs {
		fillVoid(dst[at:r.lo], l.void)
		at = r.hi
	}
	fillVoid(dst[at:l.width], l.void)
}

// scatter writes row's values at the live positions of dst, and nothing
// else: over a dst whose other positions hold void (fillVoid) it is expand.
func (l *stateLayout) scatter(dst, row []float64) {
	off := 0
	for _, r := range l.runs {
		off += copy(dst[r.lo:r.hi], row[off:])
	}
}

func allVoid(xs []float64, void float64) bool {
	vb := math.Float64bits(void)
	for _, x := range xs {
		if math.Float64bits(x) != vb {
			return false
		}
	}
	return true
}

func fillVoid(xs []float64, void float64) {
	for i := range xs {
		xs[i] = void
	}
}

// fit sets the layout CollectEpisode stores env's states under: the
// positions env reports live (Padded), or every position. A buffer that
// already holds states stored under another layout of the same width moves
// to storing every position, which holds them all; one that holds states
// of another width panics.
func (b *Buffer) fit(env Environment) {
	width := env.StateDim()
	var live []int
	void := 0.0
	if p, ok := env.(Padded); ok {
		live, void = p.LivePositions()
	}
	switch l := b.layout; {
	case l != nil && l.fits(width, live, void):
	case b.rows == 0:
		b.relayout(newLayout(width, live, void))
	case l.width != width:
		panic(fmt.Sprintf("rl: collecting width-%d states into a buffer of width-%d states", width, l.width))
	case !l.dense():
		b.relayout(newLayout(width, nil, 0))
	}
}

// relayout moves the buffer to layout l, storing every row again under it.
// l must hold every position the current layout holds, so no bit is lost.
func (b *Buffer) relayout(l *stateLayout) {
	old := Buffer{layout: b.layout, chunks: b.chunks}
	b.layout = l
	if old.layout == nil || old.layout.stride != l.stride || b.rows > 0 {
		b.chunks = nil // rows handed to a value lane keep their memory
	}
	if b.rows == 0 {
		return
	}
	state := make([]float64, l.width)
	for i := range b.rows {
		old.layout.expand(state, old.row(i))
		l.compact(b.slot(i), state)
	}
}

// slot returns the storage of row i, adding the chunk it starts.
func (b *Buffer) slot(i int) []float64 {
	if i/stateChunkRows == len(b.chunks) {
		b.chunks = append(b.chunks, make([]float64, stateChunkRows*b.layout.stride))
	}
	return b.row(i)
}

// row returns stored row i, the live values of transition i's state.
func (b *Buffer) row(i int) []float64 {
	s := b.layout.stride
	c, r := i/stateChunkRows, i%stateChunkRows
	return b.chunks[c][r*s : (r+1)*s : (r+1)*s]
}

// width returns the width of the stored states: 0 for a buffer that has
// stored none.
func (b *Buffer) width() int {
	if b.layout == nil {
		return 0
	}
	return b.layout.width
}

// storeState copies state into the buffer's own storage as row b.rows and
// reports whether the row filled its chunk. A full chunk is never written
// again before Reset, so once takeRows has returned its rows they may be
// read from another goroutine. An empty buffer without a layout for
// state's width takes one with every position live; a state that writes a
// position its layout holds as void moves the buffer to storing every
// position (relayout); a state whose width is not the stored states' panics.
func (b *Buffer) storeState(state []float64) (full bool) {
	if b.layout == nil || (b.rows == 0 && b.layout.width != len(state)) {
		b.relayout(newLayout(len(state), nil, 0))
	}
	if len(state) != b.layout.width {
		panic(fmt.Sprintf("rl: storing a width-%d state into a buffer of width-%d states", len(state), b.layout.width))
	}
	if !b.layout.compact(b.slot(b.rows), state) {
		b.relayout(newLayout(b.layout.width, nil, 0))
		b.layout.compact(b.slot(b.rows), state)
	}
	b.rows++
	return b.rows%stateChunkRows == 0
}

// takeRows returns the rows stored since the last takeRows (or since
// CollectEpisode began), row-major at the layout's live width: a block of
// one chunk. CollectEpisode takes them when a chunk fills and at the
// episode's end, so they never span two chunks.
func (b *Buffer) takeRows() []float64 {
	if b.mark == b.rows {
		return nil
	}
	s := b.layout.stride
	lo := b.mark % stateChunkRows
	hi := lo + b.rows - b.mark
	c := b.chunks[b.mark/stateChunkRows]
	b.mark = b.rows
	return c[lo*s : hi*s : hi*s]
}

// expandRows writes the states of rows, row-major at l's live width, into
// the rows of dst.
func (l *stateLayout) expandRows(dst *tensor.Matrix, rows []float64) {
	for i := range dst.Rows {
		l.expand(dst.Row(i), rows[i*l.stride:(i+1)*l.stride])
	}
}

// voidRows writes void at the positions that are not live in every row of
// dst, a block the states of one buffer are then staged into by
// Buffer.scatter: the block's void positions stay as they are until it is
// given back.
func (b *Buffer) voidRows(dst *tensor.Matrix) {
	for i := range dst.Rows {
		b.layout.fillVoid(dst.Row(i))
	}
}

// scatter writes the live values of transition i's state into dst: the
// state itself over a row prepared by voidRows.
func (b *Buffer) scatter(dst []float64, i int) {
	b.layout.scatter(dst, b.row(i))
}

// borrowStates lends a rows x cols block from the tensor pool, given back
// by tensor.Put, to stage states into for one call — an update lane's
// minibatch, the value lane's chunk, a critic-loss block, the tie scan's
// row. It is a whole number of chunks' rows viewed down to rows, so every
// reader of one width shares one buffer size.
func borrowStates(rows, cols int) *tensor.Matrix {
	return viewRows(tensor.Get(max(1, (rows+stateChunkRows-1)/stateChunkRows)*stateChunkRows, cols), rows)
}

// Add appends one transition and a copy of the state its action was taken
// on. The state is stored under the buffer's layout — the one CollectEpisode
// set from its environment, or every position live — and a state that does
// not hold void where the layout stores nothing moves the buffer to storing
// every position, so State gives every state back bit for bit. An empty
// buffer takes a state of any width; otherwise a state whose width is not
// the stored states' panics, naming both.
func (b *Buffer) Add(state []float64, t Transition) {
	b.storeState(state)
	b.push(t)
}

// push appends t, whose state is the row last stored.
func (b *Buffer) push(t Transition) {
	b.steps = append(b.steps, t)
	b.gen++
}

// State writes the state of transition i into dst (reallocating when dst is
// too small) and returns it: the observation the action was taken on, bit
// for bit.
func (b *Buffer) State(i int, dst []float64) []float64 {
	_ = b.steps[i]
	w := b.layout.width
	if cap(dst) < w {
		dst = make([]float64, w)
	}
	dst = dst[:w]
	b.layout.expand(dst, b.row(i))
	return dst
}

// Len returns the number of stored transitions.
func (b *Buffer) Len() int { return len(b.steps) }

// Reset clears the buffer, retaining its storage and its layout.
func (b *Buffer) Reset() {
	b.steps = b.steps[:0]
	b.rows, b.mark = 0, 0
	b.gen++
}

// Steps exposes the stored transitions. They are read-only: a write through
// the slice is invisible to the buffer's generation, so a loss already
// computed from it would be served stale.
func (b *Buffer) Steps() []Transition { return b.steps }

// Returns computes the discounted return-to-go G_t for every step,
// resetting at episode boundaries (Done flags). Truncated boundaries
// bootstrap with the recorded critic estimates; true terminals and an open
// (non-Done) batch tail contribute a zero continuation.
func (b *Buffer) Returns(gamma float64) []float64 {
	return b.ReturnsInto(gamma, nil)
}

// ReturnsInto is Returns writing into dst, which is grown as needed and
// returned resliced to the buffer length — the allocation-free variant the
// critic losses call with agent-owned scratch, shaped like GAEInto.
func (b *Buffer) ReturnsInto(gamma float64, dst []float64) []float64 {
	n := len(b.steps)
	g := growFloats(dst, n)
	acc := 0.0
	for i := n - 1; i >= 0; i-- {
		s := b.steps[i]
		if s.Done {
			if s.Truncated {
				acc = s.Bootstrap
			} else {
				acc = 0
			}
		}
		acc = s.Reward + gamma*acc
		g[i] = acc
	}
	return g
}

// GAEInto computes Generalized Advantage Estimation with the stored value
// estimates, resetting at episode boundaries. It returns (advantages,
// valueTargets) where valueTargets[i] = advantages[i] + Value[i] (the
// λ-return critic target), written into advIn and targetsIn, which are grown
// as needed and returned resliced to the buffer length; the update pipeline
// passes agent-owned scratch, nil slices allocate.
//
// The successor value V(s_{t+1}) in δ_t = r_t + γ·V(s_{t+1}) − V(s_t) is:
// the recorded Bootstrap at a truncated episode cut, zero at a true
// terminal and at an open (non-Done) batch tail, and the next stored
// transition's Value otherwise. The GAE
// accumulator still resets at every Done boundary — truncation ends the
// trajectory for estimation purposes; it just doesn't zero the tail.
func (b *Buffer) GAEInto(gamma, lambda float64, advIn, targetsIn []float64) (adv, targets []float64) {
	n := len(b.steps)
	adv = growFloats(advIn, n)
	targets = growFloats(targetsIn, n)
	gae := 0.0
	for i := n - 1; i >= 0; i-- {
		s := b.steps[i]
		var nextValue float64
		switch {
		case s.Truncated:
			nextValue = s.Bootstrap
		case s.Done:
			nextValue = 0
		case i+1 < n:
			nextValue = b.steps[i+1].Value
		}
		if s.Done {
			gae = 0
		}
		delta := s.Reward + gamma*nextValue - s.Value
		gae = delta + gamma*lambda*gae
		adv[i] = gae
		targets[i] = gae + s.Value
	}
	return adv, targets
}

// growFloats reslices s to length n, reallocating only when capacity is
// short. Contents are fully overwritten by the callers.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// NormalizeInPlace standardizes v to zero mean and unit variance (no-op for
// fewer than two elements). PPO normalizes advantages per batch for stable
// updates. A near-zero-variance batch is still centered — a constant
// advantage carries no preference between actions, so it must map to zeros,
// not pass through as a large uniform offset — and only the scale step is
// skipped.
func NormalizeInPlace(v []float64) {
	if len(v) < 2 {
		return
	}
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	variance := 0.0
	for _, x := range v {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(v))
	for i := range v {
		v[i] -= mean
	}
	if variance < 1e-12 {
		return
	}
	inv := 1.0 / (math.Sqrt(variance) + 1e-8)
	for i := range v {
		v[i] *= inv
	}
}
