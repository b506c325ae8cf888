package cloudsim

import (
	"math/bits"

	"repro/internal/workload"
)

// This file implements the scalable fixed-width observation's candidate
// index: with Config.TopK = k in (0, len(VMs)), the action space becomes
// k+1 candidate slots and the policy sees only the k best-fitting feasible
// VMs for the current head task, so policy input width and NumActions stay
// constant as the cluster grows.
//
// The index buckets VMs by their free-capacity classes
//
//	cpuClass = bits.Len(freeCPU)        (power-of-two bands)
//	memClass = bits.Len(floor(freeMem))
//
// and keeps, per (cpuClass, memClass) bucket, a hierarchical bitset over VM
// indices plus non-empty summary masks. Candidate selection for a head task
// requesting (c, m) iterates cpuClass ascending from bits.Len(c) and
// memClass ascending from bits.Len(floor(m)) — any lower class provably
// cannot fit, any strictly higher class provably fits in that dimension, and
// only the boundary classes need the exact Fits check that every popped VM
// gets anyway. The resulting deterministic ranking is
//
//	(free-CPU class asc, free-mem class asc, VM index asc)
//
// — a coarse tightest-fit order with ascending-index tie-break, pinned by
// TestTopKSelectionHandComputed. Selection costs O(k + classes + boundary
// misfits), independent of the total VM count; index maintenance is O(1)
// per VM capacity change.

// cpuClassOf bands a free vCPU count by bit length: 0, 1, 2-3, 4-7, ...
func cpuClassOf(freeCPU int) int { return bits.Len(uint(freeCPU)) }

// memClassOf bands free memory by the bit length of its floor in GiB.
// Values too large for an exact int conversion collapse into class 63,
// beyond any real VM's class (float→int conversion of an out-of-range
// value is not defined in Go, and a task requesting 2^62 GiB fits nothing).
func memClassOf(freeMem float64) int {
	if freeMem <= 0 {
		return 0
	}
	if freeMem >= float64(int64(1)<<62) {
		return 63
	}
	return bits.Len(uint(int(freeMem)))
}

// vmBucket is one (cpuClass, memClass) cell: a bitset over VM indices with a
// one-level summary (bit w of summary set iff word w of bitsets is nonzero)
// so iteration skips empty regions.
type vmBucket struct {
	words   []uint64
	summary []uint64
	count   int
}

func (b *vmBucket) add(i int) {
	w := i >> 6
	b.words[w] |= 1 << (uint(i) & 63)
	b.summary[w>>6] |= 1 << (uint(w) & 63)
	b.count++
}

func (b *vmBucket) remove(i int) {
	w := i >> 6
	b.words[w] &^= 1 << (uint(i) & 63)
	if b.words[w] == 0 {
		b.summary[w>>6] &^= 1 << (uint(w) & 63)
	}
	b.count--
}

// vmIndex is the cluster-wide candidate index. Class counts are tiny
// (≤ bits.Len of the largest capacity, so ~8 CPU × ~12 memory classes even
// with oversubscription), which keeps the whole structure a few hundred KB
// at 5000 VMs.
type vmIndex struct {
	nCPU, nMem int
	words      int // bitset words per bucket
	swords     int // summary words per bucket
	buckets    []vmBucket

	cpuNonempty uint64   // bit c set iff any bucket in cpu class c is non-empty
	memNonempty []uint64 // per cpu class: bit m set iff bucket (c,m) non-empty
}

// newVMIndex sizes the index for n VMs with the given maximum per-VM
// capacities (post-oversubscription).
func newVMIndex(n, maxCapCPU int, maxCapMem float64) *vmIndex {
	idx := &vmIndex{
		nCPU:  cpuClassOf(maxCapCPU) + 1,
		nMem:  memClassOf(maxCapMem) + 1,
		words: (n + 63) / 64,
	}
	idx.swords = (idx.words + 63) / 64
	idx.buckets = make([]vmBucket, idx.nCPU*idx.nMem)
	for i := range idx.buckets {
		idx.buckets[i].words = make([]uint64, idx.words)
		idx.buckets[i].summary = make([]uint64, idx.swords)
	}
	idx.memNonempty = make([]uint64, idx.nCPU)
	return idx
}

// clear empties the index for the next episode, keeping its storage.
func (idx *vmIndex) clear() {
	for i := range idx.buckets {
		b := &idx.buckets[i]
		clear(b.words)
		clear(b.summary)
		b.count = 0
	}
	idx.cpuNonempty = 0
	clear(idx.memNonempty)
}

func (idx *vmIndex) bucket(c, m int) *vmBucket { return &idx.buckets[c*idx.nMem+m] }

// add registers VM i under its free-capacity classes.
func (idx *vmIndex) add(i, c, m int) {
	b := idx.bucket(c, m)
	b.add(i)
	idx.memNonempty[c] |= 1 << uint(m)
	idx.cpuNonempty |= 1 << uint(c)
}

// remove deregisters VM i from its (previous) free-capacity classes.
func (idx *vmIndex) remove(i, c, m int) {
	b := idx.bucket(c, m)
	b.remove(i)
	if b.count == 0 {
		idx.memNonempty[c] &^= 1 << uint(m)
		if idx.memNonempty[c] == 0 {
			idx.cpuNonempty &^= 1 << uint(c)
		}
	}
}

// appendVMs walks the bucket's VM indices ascending, appending to dst until
// it holds max entries; only VMs passing fits survive (the class bands are
// safe pruning, not exact feasibility). Returns the extended slice.
func (b *vmBucket) appendVMs(dst []int32, max int, fits func(int) bool) []int32 {
	for sw, sword := range b.summary {
		for sword != 0 {
			w := sw<<6 + bits.TrailingZeros64(sword)
			sword &= sword - 1
			word := b.words[w]
			for word != 0 {
				i := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if fits(i) {
					dst = append(dst, int32(i))
					if len(dst) >= max {
						return dst
					}
				}
			}
		}
	}
	return dst
}

// Candidates returns the slot → VM index view every reader of the cluster
// goes through — Observe, the feasibility mask, Step's action resolution and
// the heuristics — with -1 for void slots. In the per-VM layout slot i is VM i
// and the slots past the cluster are void, for the whole episode. In the
// ranked layout (Ranked) the Config.TopK slots hold the best-fitting feasible
// VMs for the head task, void past the last one (the non-void entries always
// form a prefix), re-collected after every state change. The slice is owned by
// the environment and valid until the next state change.
func (e *Env) Candidates() []int32 {
	if !e.ranked || e.candValid {
		return e.cand
	}
	k := e.cfg.TopK
	e.cand = e.cand[:0]
	if head, ok := e.HeadTask(); ok {
		e.cand = e.idx.collect(e.cand, k, head, e.vms)
	}
	for len(e.cand) < k {
		e.cand = append(e.cand, -1)
	}
	e.candValid = true
	return e.cand
}

// collect gathers up to k feasible VMs for head in the documented ranking
// order: ascending cpuClass from the head's CPU class, ascending memClass
// from the head's memory class, ascending VM index.
func (idx *vmIndex) collect(dst []int32, k int, head workload.Task, vms []*VM) []int32 {
	fits := func(i int) bool { return vms[i].Fits(head) }
	hc := cpuClassOf(head.CPU)
	hm := memClassOf(head.Mem)
	if hm >= 64 { // request beyond any representable class: nothing can fit
		return dst
	}
	cpuMask := idx.cpuNonempty &^ (1<<uint(hc) - 1)
	for cpuMask != 0 {
		c := bits.TrailingZeros64(cpuMask)
		cpuMask &= cpuMask - 1
		memMask := idx.memNonempty[c] &^ (1<<uint(hm) - 1)
		for memMask != 0 {
			m := bits.TrailingZeros64(memMask)
			memMask &= memMask - 1
			dst = idx.bucket(c, m).appendVMs(dst, k, fits)
			if len(dst) >= k {
				return dst
			}
		}
	}
	return dst
}

// Ranked reports whether the slots are ranked candidates: a candidate index
// in front of a cluster larger than TopK. With TopK = 0 or TopK ≥ len(VMs)
// there is nothing to rank and the environment runs the per-VM layout.
func (e *Env) Ranked() bool { return e.ranked }

// CandidateVM maps a placement action to the VM index it addresses in the
// current state, or -1 for a void slot.
func (e *Env) CandidateVM(slot int) int { return int(e.Candidates()[slot]) }
