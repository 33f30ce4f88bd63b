package gpu

import (
	"fmt"
	"unsafe"

	"igpucomm/internal/cache"
	"igpucomm/internal/isa"
	"igpucomm/internal/units"
)

// This file is the batch-kernel core: a one-time "trace → access-run"
// compile pass plus a replay executor.
//
// Compile walks the kernel exactly the way the reference executor does —
// SMs outer, resident batches, slot-major interleave across a batch's warps
// — but instead of pushing each coalesced transaction through the cache
// hierarchy it records the whole transaction stream into a CompiledKernel.
// Everything that does not depend on cache state is resolved at compile
// time: SIMT validation, coalescing, the per-SM warp counts, issue-cycle
// totals, instruction and requested-byte counts. What remains per launch —
// the only state-dependent part — is driving the recorded transactions
// through the caches, which LaunchCompiled does with the batch cache kernels
// (cache.DoBatch) instead of per-access interface calls.
//
// The stream is a sequence of fixed-size chunks of chunkLen transactions,
// each a run of cache.Access records plus a parallel path byte, addressed by
// global index. Growing the stream allocates the next chunk and never copies
// what is already recorded, and a recompile reuses the chunks the kernel
// owns. Replay hands each run of consecutive same-path transactions to the
// batch kernels as a direct slice of one chunk, so a run crossing a chunk
// boundary is serviced as two batches, and the replay's result scratch never
// exceeds one chunk.
//
// Byte-identity argument, load-bearing for the differential suite:
//
//   - The transaction stream depends only on the emitted programs and the
//     pinned ranges, never on cache contents, so recording it once and
//     replaying is exact. Pinned routing is guarded by a generation counter
//     (GPU.PinnedEpoch); a stale CompiledKernel refuses to replay.
//   - Issue-cycle totals are float sums, but Config.Validate rejects any
//     cost model that is not integral (whole cycles), so bulk-charging a
//     run of n identical ops as cost*n equals the reference's n sequential
//     additions bit-for-bit (integer-valued partial sums are exact). The
//     reference executor is reached only through SetReferenceMode, the
//     differential tests' oracle switch.
//   - Per-SM memory latency is summed per transaction in the original
//     global order, reading the batch kernels' per-access results, so the
//     float addition sequence matches the reference exactly — including the
//     fractional latencies some device catalogs use.
//   - Transactions on the cached path and the pinned path share no mutable
//     state below except DRAM's integer counters, so servicing consecutive
//     same-path groups together preserves every observable.
//   - DoBatch is byte-identical to per-access Do in order, so splitting an
//     ordered same-path group at a chunk boundary into two consecutive
//     batches issues the same sequence of accesses, and the latencies are
//     still summed in global order.
type CompiledKernel struct {
	name      string
	warpCount int

	instructions   int64
	bytesRequested int64
	txnBytes       int64

	smCompute []units.Cycles
	smWarps   []int
	smTxnEnd  []int32 // exclusive global end index into the transaction stream, per SM

	// The transaction stream, in global order, split into fixed-size chunks:
	// transaction i lives in chunks[i/chunkLen] at offset i%chunkLen. Each
	// chunk holds ready-to-issue cache accesses plus a parallel path byte,
	// so the replay hands contiguous same-path groups to the batch cache
	// kernels without copying. used counts the chunks in play (tail is the
	// last of them); chunks past used are owned spares a recompile reuses.
	chunks []*txnChunk
	used   int
	tail   *txnChunk

	// progH1/progH2 fingerprint the emitted programs: the sum of every
	// lane's digest (laneDigest), accumulated during compile emission when
	// GPU.hashCompile is set (the kernel cache requests it for keys that
	// show cross-run reuse). The sum is order-independent, so it equals
	// hashPrograms' tid-major walk even though compile emits in SM-strided
	// batch order.
	progH1, progH2 uint64

	epoch uint64
	valid bool
}

const (
	pathCached uint8 = iota // through the issuing SM's L1
	pathPinned              // down the pinned (zero-copy) path
)

// chunkLen is the transaction capacity of one stream chunk (a power of two,
// so global indices split with a shift and a mask). It also bounds a replay
// group, and with it the replay's per-access result scratch.
const (
	chunkShift = 13
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// firstChunkLen is the initial capacity of a kernel's first chunk, which
// doubles up to chunkLen; small kernels do not pay for a whole chunk.
const firstChunkLen = 256

// txnChunk is one fixed-capacity slice of the transaction stream. Every
// chunk but the last in use is full; only a kernel's first chunk may have
// less than chunkLen capacity, and only while the stream fits in it.
type txnChunk struct {
	accs  []cache.Access
	paths []uint8
}

// Epoch is the pinned-routing generation this kernel was compiled under; it
// must match GPU.PinnedEpoch for LaunchCompiled to accept the kernel.
func (ck *CompiledKernel) Epoch() uint64 { return ck.epoch }

// Name returns the source kernel's name.
func (ck *CompiledKernel) Name() string { return ck.name }

// Transactions returns the size of the compiled transaction stream.
func (ck *CompiledKernel) Transactions() int64 { return int64(ck.txnCount()) }

// txnCount is the number of recorded transactions: the global index the
// next appended transaction receives.
func (ck *CompiledKernel) txnCount() int {
	if ck.used == 0 {
		return 0
	}
	return (ck.used-1)<<chunkShift + len(ck.tail.accs)
}

// chunkBytes is the storage the kernel's chunks retain, in-use and spare:
// one Access plus one path byte per slot of capacity.
func (ck *CompiledKernel) chunkBytes() int64 {
	var n int64
	for _, c := range ck.chunks {
		n += int64(cap(c.accs))*int64(unsafe.Sizeof(cache.Access{})) + int64(cap(c.paths))
	}
	return n
}

func (ck *CompiledKernel) reset(k Kernel, warpCount, sms int, epoch uint64) {
	ck.name = k.Name
	ck.warpCount = warpCount
	ck.instructions = 0
	ck.bytesRequested = 0
	ck.txnBytes = 0
	if cap(ck.smCompute) < sms {
		ck.smCompute = make([]units.Cycles, sms)
		ck.smWarps = make([]int, sms)
		ck.smTxnEnd = make([]int32, sms)
	}
	ck.smCompute = ck.smCompute[:sms]
	ck.smWarps = ck.smWarps[:sms]
	ck.smTxnEnd = ck.smTxnEnd[:sms]
	for i := 0; i < sms; i++ {
		ck.smCompute[i] = 0
		ck.smWarps[i] = 0
		ck.smTxnEnd[i] = 0
	}
	ck.clearStream()
	ck.progH1 = 0
	ck.progH2 = 0
	ck.epoch = epoch
	ck.valid = false
}

// clearStream empties the transaction stream, keeping every chunk as an
// owned spare.
func (ck *CompiledKernel) clearStream() {
	for _, c := range ck.chunks[:ck.used] {
		c.accs = c.accs[:0]
		c.paths = c.paths[:0]
	}
	ck.used = 0
	ck.tail = nil
}

func (ck *CompiledKernel) appendTxn(path uint8, kind cache.Kind, addr, size int64) {
	c := ck.tail
	if c == nil || len(c.accs) == cap(c.accs) {
		c = ck.grow()
	}
	c.accs = append(c.accs, cache.Access{Addr: addr, Size: size, Kind: kind})
	c.paths = append(c.paths, path)
	ck.txnBytes += size
}

// grow makes room for one more transaction and returns the chunk it goes
// in: a first chunk below chunkLen doubles in place; otherwise the stream
// moves on to the next chunk, reusing one the kernel already owns. Nothing
// already recorded is copied once it fills a whole chunk.
func (ck *CompiledKernel) grow() *txnChunk {
	if c := ck.tail; c != nil && cap(c.accs) < chunkLen {
		n := min(2*cap(c.accs), chunkLen)
		c.accs = append(make([]cache.Access, 0, n), c.accs...)
		c.paths = append(make([]uint8, 0, n), c.paths...)
		return c
	}
	if ck.used == len(ck.chunks) {
		n := chunkLen
		if ck.used == 0 {
			n = firstChunkLen
		}
		ck.chunks = append(ck.chunks, &txnChunk{
			accs:  make([]cache.Access, 0, n),
			paths: make([]uint8, 0, n),
		})
	}
	ck.tail = ck.chunks[ck.used]
	ck.used++
	return ck.tail
}

// laneCursor walks one lane's run-length-encoded program.
type laneCursor struct {
	runs []isa.Run
	idx  int
	off  int32
}

// memEvent is one memory warp-instruction discovered during the per-warp
// walk: its slot index and the captured per-lane instructions.
type memEvent struct {
	slot      int32
	laneStart int32
	laneCount int32
	op        isa.Op
}

// compiler is the reusable compile-pass scratch. Everything grows once and
// is sliced back to zero per batch, so steady-state compilation allocates
// only the CompiledKernel's own (also reused) arrays.
type compiler struct {
	warps    []int
	lanes    []int
	lockstep []bool // per batch warp: every lane's run boundaries match lane 0's
	cur      []laneCursor
	laneRuns [][]isa.Run
	events   []memEvent
	evLanes  []isa.Instr
	evStart  []int32
	evEnd    []int32
	evCur    []int32
	lineBuf  []int64
	wcBuf    []int64

	// onMem, when set, is called right after each memory warp-instruction's
	// transactions are appended to the stream, with the issuing warp and
	// its instruction slot. VisitTransactions sets it; Launch leaves it nil.
	onMem func(warp, slot int)
}

func (c *compiler) ensure(ws, resident int) {
	if cap(c.cur) < ws {
		c.cur = make([]laneCursor, ws)
	}
	if cap(c.laneRuns) < ws {
		c.laneRuns = make([][]isa.Run, ws)
	}
	if cap(c.evStart) < resident {
		c.evStart = make([]int32, resident)
		c.evEnd = make([]int32, resident)
		c.evCur = make([]int32, resident)
	}
	if cap(c.lineBuf) < 2*ws {
		c.lineBuf = make([]int64, 0, 2*ws)
	}
	if cap(c.wcBuf) < ws {
		c.wcBuf = make([]int64, 0, ws)
	}
}

// Compile builds a fresh compiled form of the kernel (see CompileInto).
// Model runners cache the result and replay it across iterations.
func (g *GPU) Compile(k Kernel) (*CompiledKernel, error) {
	ck := &CompiledKernel{}
	if err := g.CompileInto(k, ck); err != nil {
		return nil, err
	}
	return ck, nil
}

// CompileInto compiles the kernel into ck, reusing its storage. It performs
// every validation Launch performs (thread count, program validity, SIMT
// convergence) and reports the same errors; unlike the reference executor it
// does so before any cache state is touched.
func (g *GPU) CompileInto(k Kernel, ck *CompiledKernel) error {
	if k.Threads <= 0 {
		return fmt.Errorf("kernel %s: thread count %d must be positive", k.Name, k.Threads)
	}
	if k.Program == nil {
		return fmt.Errorf("kernel %s: nil program", k.Name)
	}
	ws := g.cfg.WarpSize
	warpCount := (k.Threads + ws - 1) / ws
	resident := g.resident()
	g.ensureLaneBuffers(resident)
	g.comp.ensure(ws, resident)
	ck.reset(k, warpCount, len(g.sms), g.pinnedEpoch)

	c := &g.comp
	for smIdx := range g.sms {
		for start := smIdx; start < warpCount; start += len(g.sms) * resident {
			c.warps = c.warps[:0]
			for w := start; w < warpCount && len(c.warps) < resident; w += len(g.sms) {
				c.warps = append(c.warps, w)
			}
			if err := g.compileBatch(k, smIdx, ck); err != nil {
				return err
			}
		}
		ck.smTxnEnd[smIdx] = int32(ck.txnCount())
	}
	ck.valid = true
	return nil
}

// compileBatch compiles one resident batch: emit lanes, validate, charge
// compute in bulk per run segment, then emit the batch's memory transactions
// in the reference executor's slot-major interleaved order.
func (g *GPU) compileBatch(k Kernel, smIdx int, ck *CompiledKernel) error {
	c := &g.comp
	ws := g.cfg.WarpSize

	// Emission, validation and convergence, warp by warp in batch order —
	// the same error-discovery order as the reference executor.
	c.lanes = c.lanes[:0]
	c.lockstep = c.lockstep[:0]
	for bi, w := range c.warps {
		lanes := ws
		if last := k.Threads - w*ws; last < lanes {
			lanes = last
		}
		c.lanes = append(c.lanes, lanes)
		for l := 0; l < lanes; l++ {
			p := &g.laneProgs[bi*ws+l]
			p.Reset()
			k.Program(w*ws+l, p)
			if g.hashCompile {
				d1, d2 := laneDigest(w*ws+l, p.Runs())
				ck.progH1 += d1
				ck.progH2 += d2
			}
		}
		idx := 0
		for _, r := range g.laneProgs[bi*ws].Runs() {
			if err := r.In.Validate(); err != nil {
				return fmt.Errorf("kernel %s: warp %d lane 0 instr %d: %w", k.Name, w, idx, err)
			}
			idx += int(r.Count)
		}
		// Convergence and lockstep in one pass: a lane whose runs equal lane
		// 0's in (Op, Count) is both convergent and run-aligned with it.
		// Only lanes that differ — masked lanes, divergent ones, which no
		// catalog kernel has — are materialized and take the reference
		// executor's own slot-exact check, in its lane order.
		ref := &g.laneProgs[bi*ws]
		runs0 := ref.Runs()
		flat := 0 // lanes of this warp materialized into g.laneIn
		lockstep := true
		for l := 1; l < lanes; l++ {
			other := &g.laneProgs[bi*ws+l]
			rl := other.Runs()
			if sameOpsAndCounts(runs0, rl) {
				continue
			}
			if other.Len() != ref.Len() {
				return fmt.Errorf("kernel %s: warp %d diverges: lane 0 has %d instrs, lane %d has %d",
					k.Name, w, ref.Len(), l, other.Len())
			}
			for ; flat <= l; flat++ {
				g.laneIn[bi*ws+flat] = g.laneProgs[bi*ws+flat].Instrs()
			}
			if err := checkLane(k.Name, w, g.laneIn[bi*ws:bi*ws+l+1]); err != nil {
				return err
			}
			if lockstep && !sameCounts(runs0, rl) {
				lockstep = false
			}
		}
		c.lockstep = append(c.lockstep, lockstep)
		ck.smWarps[smIdx]++
	}

	// Per-warp run walk: bulk compute charging plus memory-event capture.
	// Segments are bounded by every lane's run boundaries, so each lane's
	// opcode — and therefore the slot's effective opcode — is constant
	// within a segment.
	c.events = c.events[:0]
	c.evLanes = c.evLanes[:0]
	maxLen := 0
	for bi := range c.warps {
		c.evStart[bi] = int32(len(c.events))
		lanes := c.lanes[bi]
		total := g.laneProgs[bi*ws].Len()
		if total > maxLen {
			maxLen = total
		}
		laneRuns := c.laneRuns[:lanes]
		for l := 0; l < lanes; l++ {
			laneRuns[l] = g.laneProgs[bi*ws+l].Runs()
		}

		// Lockstep fast path: when every lane's run boundaries coincide
		// (the common case — masked lanes with wider Nop runs are the
		// exception), the walk advances one whole run at a time with no
		// per-lane cursors; the segment decomposition, and with it every
		// emitted quantity, is identical to the generic walk's.
		runs0 := laneRuns[0]
		if c.lockstep[bi] {
			slot := 0
			for ri := range runs0 {
				step := int(runs0[ri].Count)
				eff := runs0[ri].In.Op
				if eff == isa.Nop {
					for l := 1; l < lanes; l++ {
						if op := laneRuns[l][ri].In.Op; op != isa.Nop {
							eff = op
							break
						}
					}
				}
				ck.instructions += int64(lanes) * int64(step)
				ck.smCompute[smIdx] += g.costs.Cost(eff) * units.Cycles(step)
				if eff.IsMemory() {
					// A memory run has Count 1, so step is 1 here.
					ev := memEvent{slot: int32(slot), laneStart: int32(len(c.evLanes)), laneCount: int32(lanes), op: eff}
					for l := 0; l < lanes; l++ {
						c.evLanes = append(c.evLanes, laneRuns[l][ri].In)
					}
					c.events = append(c.events, ev)
				}
				slot += step
			}
			c.evEnd[bi] = int32(len(c.events))
			continue
		}

		cur := c.cur[:lanes]
		for l := 0; l < lanes; l++ {
			cur[l] = laneCursor{runs: laneRuns[l]}
		}
		slot := 0
		for slot < total {
			step := total - slot
			eff := isa.Nop
			for l := 0; l < lanes; l++ {
				r := &cur[l].runs[cur[l].idx]
				if rem := int(r.Count - cur[l].off); rem < step {
					step = rem
				}
				if eff == isa.Nop && r.In.Op != isa.Nop {
					eff = r.In.Op
				}
			}
			ck.instructions += int64(lanes) * int64(step)
			ck.smCompute[smIdx] += g.costs.Cost(eff) * units.Cycles(step)
			if eff.IsMemory() {
				// A memory run has Count 1, so step is 1 here.
				ev := memEvent{slot: int32(slot), laneStart: int32(len(c.evLanes)), laneCount: int32(lanes), op: eff}
				for l := 0; l < lanes; l++ {
					c.evLanes = append(c.evLanes, cur[l].runs[cur[l].idx].In)
				}
				c.events = append(c.events, ev)
			}
			for l := 0; l < lanes; l++ {
				cur[l].off += int32(step)
				if cur[l].off == cur[l].runs[cur[l].idx].Count {
					cur[l].idx++
					cur[l].off = 0
				}
			}
			slot += step
		}
		c.evEnd[bi] = int32(len(c.events))
	}

	// Emit transactions slot-major across the batch's warps — the warp
	// scheduler's interleave, which fixes the global transaction order the
	// replay preserves.
	copy(c.evCur[:len(c.warps)], c.evStart[:len(c.warps)])
	for i := 0; i < maxLen; i++ {
		for bi := range c.warps {
			if c.evCur[bi] < c.evEnd[bi] && c.events[c.evCur[bi]].slot == int32(i) {
				g.emitTxns(ck, &c.events[c.evCur[bi]])
				c.evCur[bi]++
				if c.onMem != nil {
					c.onMem(c.warps[bi], i)
				}
			}
		}
	}
	return nil
}

// emitTxns coalesces one memory warp-instruction into transactions, exactly
// as the reference executor does: pinned reads lane-by-lane uncoalesced,
// pinned writes merged through the 64B write-combining buffer, cacheable
// lanes deduplicated to distinct lines.
func (g *GPU) emitTxns(ck *CompiledKernel, ev *memEvent) {
	c := &g.comp
	kind := cache.Read
	if ev.op == isa.StGlobal {
		kind = cache.Write
	}
	lineSize := g.cfg.L1.LineSize
	c.lineBuf = c.lineBuf[:0]
	c.wcBuf = c.wcBuf[:0]
	var wcBytes int64
	for _, la := range c.evLanes[ev.laneStart : ev.laneStart+ev.laneCount] {
		if la.Op == isa.Nop {
			continue
		}
		ck.bytesRequested += la.Size
		if g.pinned(la.Addr) {
			if kind == cache.Write {
				wcLine := la.Addr >> 6 // 64B write-combining lines
				if !containsInt64(c.wcBuf, wcLine) {
					c.wcBuf = append(c.wcBuf, wcLine)
					wcBytes += la.Size
				}
				continue
			}
			ck.appendTxn(pathPinned, kind, la.Addr, la.Size)
			continue
		}
		first := la.Addr >> g.lineShift
		last := (la.Addr + la.Size - 1) >> g.lineShift
		for ln := first; ln <= last; ln++ {
			if !containsInt64(c.lineBuf, ln) {
				c.lineBuf = append(c.lineBuf, ln)
			}
		}
	}
	for _, wcLine := range c.wcBuf {
		size := wcBytes / int64(len(c.wcBuf))
		if size <= 0 {
			size = 4
		}
		ck.appendTxn(pathPinned, cache.Write, wcLine*64, size)
	}
	for _, ln := range c.lineBuf {
		ck.appendTxn(pathCached, kind, ln*lineSize, lineSize)
	}
}

// sameOpsAndCounts reports whether two lanes have identical run structure:
// the same opcode and count run for run. Such lanes converge (every slot's
// opcodes match) and share run boundaries (lockstep).
func sameOpsAndCounts(a, b []isa.Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Count != b[i].Count || a[i].In.Op != b[i].In.Op {
			return false
		}
	}
	return true
}

// sameCounts reports whether two lanes share run boundaries: the same
// number of runs with equal counts, whatever the opcodes.
func sameCounts(a, b []isa.Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Count != b[i].Count {
			return false
		}
	}
	return true
}

// replayScratch holds the replay executor's reusable buffers.
type replayScratch struct {
	outs  []cache.Result
	batch cache.Batch
}

// LaunchCompiled replays a compiled kernel: it restores the per-SM compile-
// time accumulators, drives the recorded transaction stream through the
// batch cache kernels in original order, and applies the shared interval-
// model tail. The result is byte-identical to LaunchReference of the source
// kernel. It is an error to replay a kernel compiled under different pinned
// routing (see PinnedEpoch) or one whose compile failed.
func (g *GPU) LaunchCompiled(ck *CompiledKernel) (Result, error) {
	if !ck.valid {
		return Result{}, fmt.Errorf("gpu %s: compiled kernel %s is not valid", g.cfg.Name, ck.name)
	}
	if ck.epoch != g.pinnedEpoch {
		return Result{}, fmt.Errorf("gpu %s: compiled kernel %s is stale: pinned routing changed since compile", g.cfg.Name, ck.name)
	}
	before := g.snapStats()
	var res Result
	res.Warps = ck.warpCount
	res.Instructions = ck.instructions
	res.Transactions = int64(ck.txnCount())
	res.TransactionBytes = ck.txnBytes
	res.BytesRequested = ck.bytesRequested

	start := 0
	for si, s := range g.sms {
		s.computeCycles = ck.smCompute[si]
		s.memLatency = 0
		s.warps = ck.smWarps[si]
		end := int(ck.smTxnEnd[si])
		// Walk the SM's transactions chunk by chunk, so every same-path
		// group handed to the batch kernels ends at a chunk boundary.
		for start < end {
			c := ck.chunks[start>>chunkShift]
			lo := start & chunkMask
			hi := min(len(c.accs), lo+end-start)
			for t := lo; t < hi; {
				p := c.paths[t]
				r := t + 1
				for r < hi && c.paths[r] == p {
					r++
				}
				g.replayGroup(s, p, c.accs[t:r])
				t = r
			}
			start += hi - lo
		}
	}

	g.finishResult(&res, before, ck.warpCount, g.resident())
	return res, nil
}

// replayGroup services one run of consecutive same-path transactions
// through the batch cache kernels and accumulates their latencies into the
// SM in transaction order. The access group is a direct slice of one stream
// chunk — no per-launch copying — so it, and the result scratch, never
// exceed chunkLen.
func (g *GPU) replayGroup(s *sm, path uint8, accs []cache.Access) {
	rs := &g.replay
	n := len(accs)
	if cap(rs.outs) < n {
		rs.outs = make([]cache.Result, n)
	}
	outs := rs.outs[:n]
	if g.heat != nil && path == pathPinned {
		// Pinned transactions bypass the caches, so the replay records them
		// directly — in stream order, the same order the reference executor
		// records at issue, keeping heat under the byte-identity contract.
		for j := range accs {
			g.heat.Record(accs[j].Addr, accs[j].Size, accs[j].Kind == cache.Write, true)
		}
	}
	switch {
	case path == pathCached:
		s.l1.DoBatch(accs, outs, &rs.batch)
	default:
		if bl, ok := g.pinnedPath.(cache.BatchLevel); ok {
			bl.DoBatch(accs, outs, &rs.batch)
		} else {
			for j := range accs {
				outs[j] = g.pinnedPath.Do(accs[j])
			}
		}
	}
	for j := 0; j < n; j++ {
		s.memLatency += outs[j].Latency
	}
}
