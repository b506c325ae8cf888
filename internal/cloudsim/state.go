package cloudsim

// VoidMarker fills observation positions that do not exist in this client's
// cluster (padded VM slots, padded vCPU slots, empty queue slots) — the
// "void" positions of Fig. 6. Using −1 keeps voids distinguishable from
// idle-but-present resources (which encode as 0).
const VoidMarker = -1.0

// padSlots returns the number of VM slots in the observation and action
// space: TopK candidate slots in scalable mode, PadVMs otherwise.
func (c *Config) padSlots() int {
	if c.TopK > 0 {
		return c.TopK
	}
	return c.PadVMs
}

// aggDim returns the width of the aggregate-utilization block appended to a
// scalable observation: CPU and memory utilization histograms of UtilBuckets
// buckets each, plus total used-CPU fraction, used-memory fraction, and a
// squashed queue length. Zero when the block is disabled.
func aggDim(cfg Config) int {
	if cfg.TopK > 0 && cfg.UtilBuckets > 0 {
		return 2*cfg.UtilBuckets + 3
	}
	return 0
}

// queueDepth is Q: the queued tasks visible in the observation.
const queueDepth = 5

// StateDim returns the observation length for a configuration:
//
//	L·d  (remaining capacity per VM slot; L = TopK in scalable mode)
//	L·U  (per-vCPU completion progress)
//	Q·d  (requested resources of the first Q queued tasks)
//	[2B+3 aggregate block, scalable mode with UtilBuckets = B > 0]
func StateDim(cfg Config) int {
	l := cfg.padSlots()
	return l*NumResources + l*cfg.PadVCPUs + queueDepth*NumResources + aggDim(cfg)
}

// StateDim returns the environment's observation length.
func (e *Env) StateDim() int { return StateDim(e.cfg) }

// LivePositions reports, ascending, every observation position this
// environment's configuration can ever write, and VoidMarker, which every
// other position holds in every observation (rl.Padded: the trajectory
// buffer stores only these). In the per-VM layout they are each real
// slot's two features, its VM's real vCPUs, the queue block and the
// aggregate block; in the ranked layout, whose slots hold whichever VMs
// rank first, every position. The slice is the environment's, fixed for
// its life; callers must not write it.
func (e *Env) LivePositions() (live []int, void float64) { return e.live, VoidMarker }

// livePositions lists the positions LivePositions reports.
func (e *Env) livePositions() []int {
	dim := e.StateDim()
	live := make([]int, 0, dim)
	if e.ranked {
		for i := range dim {
			live = append(live, i)
		}
		return live
	}
	cfg := e.cfg
	for s := range cfg.VMs {
		for r := range NumResources {
			live = append(live, NumResources*s+r)
		}
	}
	vcpuOff := cfg.padSlots() * NumResources
	for s, vm := range cfg.VMs {
		for u := range vm.CPU {
			live = append(live, vcpuOff+s*cfg.PadVCPUs+u)
		}
	}
	for i := vcpuOff + cfg.padSlots()*cfg.PadVCPUs; i < dim; i++ {
		live = append(live, i) // the queue and the aggregate block
	}
	return live
}

// Observe encodes the current state S = (S^VM, S^vCPU, S^Queue) into dst,
// allocating when dst is too small, and returns the buffer. Layout:
//
//	[0, L·d)            per-slot remaining CPU and memory, normalized by the
//	                    federation caps MaxCPU / MaxMem; void slots = −1.
//	[L·d, L·d+L·U)      per-vCPU completion progress in (0,1]; idle = 0,
//	                    void (vCPU or slot beyond this cluster) = −1.
//	[L·d+L·U, +Q·d)     first Q queued tasks' normalized (CPU, Mem)
//	                    requests; empty queue slots = −1.
//	[end−(2B+3), end)   aggregate block (scalable mode with UtilBuckets=B):
//	                    cluster-wide CPU and memory utilization histograms,
//	                    used-CPU and used-memory fractions, queue length
//	                    squashed to [0,1).
//
// Slot s describes the VM Candidates()[s]: VM s in the per-VM layout, the
// s-th ranked feasible candidate for the head task in the ranked one.
//
// Every observation starts as a copy of the all-void buffer and only the
// positions that exist are written: a slot's VM, its real vCPUs, the visible
// queue prefix. The bulk copy is what makes one body affordable: writing the
// void markers element by element instead measured ≈ 2× on the per-VM
// layout (StateDim 1330) and ≈ 7× on the ranked one (BenchmarkObserve).
func (e *Env) Observe(dst []float64) []float64 {
	dim := e.StateDim()
	if cap(dst) < dim {
		dst = make([]float64, dim)
	}
	dst = dst[:dim]
	copy(dst, e.voidObs)

	cfg := e.cfg
	now := e.now
	vcpuOff := cfg.padSlots() * NumResources
	for s, vi := range e.Candidates() {
		if vi < 0 {
			continue
		}
		vm := e.vms[vi]
		// S^VM: remaining capacity.
		dst[NumResources*s] = float64(vm.freeCPU) / float64(cfg.MaxCPU)
		dst[NumResources*s+1] = vm.freeMem / cfg.MaxMem
		// S^vCPU: running-state progress, read straight from the VM's dense
		// per-vCPU (owner, start, duration) arrays — no per-slot task lookups.
		row := dst[vcpuOff+s*cfg.PadVCPUs:][:len(vm.vcpuOwner)]
		for u := range row {
			row[u] = 0
		}
		for u, owner := range vm.vcpuOwner {
			if owner == -1 {
				continue
			}
			p := float64(now-vm.vcpuStart[u]+1) / float64(vm.vcpuDur[u])
			if p > 1 {
				p = 1
			}
			row[u] = p
		}
	}
	// S^Queue: requested resources of the visible queue prefix.
	off := vcpuOff + cfg.padSlots()*cfg.PadVCPUs
	qlen := e.QueueLen()
	if qlen > queueDepth {
		qlen = queueDepth
	}
	for q := 0; q < qlen; q++ {
		t := &e.queue[e.qhead+q]
		dst[off] = float64(t.CPU) / float64(cfg.MaxCPU)
		dst[off+1] = t.Mem / cfg.MaxMem
		off += NumResources
	}
	if e.aggOn {
		e.writeAgg(dst[dim-aggDim(cfg):])
	}
	return dst
}

// writeAgg fills the 2B+3 aggregate block from the incrementally maintained
// histograms and totals: per-bucket VM fractions by CPU then memory
// utilization, cluster used-CPU and used-memory fractions, and the queue
// length squashed by q/(q+32).
func (e *Env) writeAgg(dst []float64) {
	b := e.cfg.UtilBuckets
	n := float64(len(e.vms))
	for i := 0; i < b; i++ {
		dst[i] = float64(e.histCPU[i]) / n
	}
	for i := 0; i < b; i++ {
		dst[b+i] = float64(e.histMem[i]) / n
	}
	dst[2*b] = float64(e.usedCPU) / float64(e.capCPUTot)
	dst[2*b+1] = e.usedMem / e.capMemTot
	ql := float64(e.QueueLen())
	dst[2*b+2] = ql / (ql + 32)
}
