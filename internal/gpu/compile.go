package gpu

import (
	"fmt"
	"math"
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
//   - A kernel declaring Stride (see Kernel) compiles warp 0 the normal way
//     into a template and derives each other full warp w by shifting every
//     template transaction's address by D = w*WarpSize*Stride. Under the
//     declaration, lane l of warp w runs lane l of warp 0's program with
//     every address plus D, so its opcodes, sizes, lane masks, compute and
//     counts are warp 0's. The shift is exact when D is a multiple of the
//     L1 line and of the 64 B write-combining granule — the whole kernel
//     compiles the normal way unless WarpSize*Stride is a positive multiple
//     of both. Then every lane's line and WC-line indices move by the same
//     whole number, so coalescing merges the same lanes in the same
//     first-seen order and yields the template's transactions plus D.
//     Pinned routing, decided per lane start address, must move with them:
//     warp w derives only if, for every memory slot, warp 0's lanes share
//     one route and the slot's lane-address envelope plus D lies wholly in
//     one pinned range (pinned) or clear of all of them (cached). A partial
//     last warp, and any full warp failing that test, compiles the normal
//     way. Derived warps keep their place in the slot-major batch
//     interleave, so the stream order and the (warp, slot) tags
//     VisitTransactions reports are unchanged; their compute is charged as
//     warp 0's whole-cycle total, exact by the integral-cost argument above.
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

// Diff reports the first way ck and o would replay differently, or nil when
// they would not: the name, warp count, instruction, requested-byte and
// transaction totals, per-SM compute, warp counts and stream bounds, and
// every transaction in order. Chunk capacity, spare chunks and the pinned
// epoch are bookkeeping, not content. The declared-kernel differential
// tests use it to prove that a kernel compiled from a warp template is the
// kernel its undeclared twin compiles to.
func (ck *CompiledKernel) Diff(o *CompiledKernel) error {
	switch {
	case ck.valid != o.valid:
		return fmt.Errorf("valid %v vs %v", ck.valid, o.valid)
	case ck.name != o.name:
		return fmt.Errorf("name %q vs %q", ck.name, o.name)
	case ck.warpCount != o.warpCount:
		return fmt.Errorf("warps %d vs %d", ck.warpCount, o.warpCount)
	case ck.instructions != o.instructions:
		return fmt.Errorf("instructions %d vs %d", ck.instructions, o.instructions)
	case ck.bytesRequested != o.bytesRequested:
		return fmt.Errorf("requested bytes %d vs %d", ck.bytesRequested, o.bytesRequested)
	case ck.txnBytes != o.txnBytes:
		return fmt.Errorf("transaction bytes %d vs %d", ck.txnBytes, o.txnBytes)
	case ck.txnCount() != o.txnCount():
		return fmt.Errorf("transactions %d vs %d", ck.txnCount(), o.txnCount())
	case len(ck.smCompute) != len(o.smCompute):
		return fmt.Errorf("SMs %d vs %d", len(ck.smCompute), len(o.smCompute))
	}
	for i := range ck.smCompute {
		switch {
		case ck.smCompute[i] != o.smCompute[i]:
			return fmt.Errorf("SM %d compute %v vs %v", i, ck.smCompute[i], o.smCompute[i])
		case ck.smWarps[i] != o.smWarps[i]:
			return fmt.Errorf("SM %d warps %d vs %d", i, ck.smWarps[i], o.smWarps[i])
		case ck.smTxnEnd[i] != o.smTxnEnd[i]:
			return fmt.Errorf("SM %d stream end %d vs %d", i, ck.smTxnEnd[i], o.smTxnEnd[i])
		}
	}
	for i := 0; i < ck.txnCount(); i++ {
		a, b := ck.chunks[i>>chunkShift], o.chunks[i>>chunkShift]
		j := i & chunkMask
		if a.accs[j] != b.accs[j] || a.paths[j] != b.paths[j] {
			return fmt.Errorf("transaction %d: %+v path %d vs %+v path %d", i, a.accs[j], a.paths[j], b.accs[j], b.paths[j])
		}
	}
	return nil
}

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
// walk: its slot index and the captured per-lane instructions. txnEnd is the
// stream length right after its transactions were appended.
type memEvent struct {
	slot      int32
	laneStart int32
	laneCount int32
	op        isa.Op
	txnEnd    int32
}

// wcGranule is the pinned write-combining buffer's line size in bytes.
const wcGranule = 64

// warpTemplate is warp 0 of a declared affine kernel, compiled the normal
// way into its own one-warp stream, plus what deriving another full warp
// from it takes: warp 0's compute charge and counts, and per memory slot
// its transactions and the envelope and route of its lanes' addresses.
type warpTemplate struct {
	ok    bool  // the kernel being compiled derives its full warps from this
	span  int64 // WarpSize*Stride: the address shift from one warp to the next
	slots int   // warp 0's program length

	compute        units.Cycles
	instructions   int64
	bytesRequested int64

	events []tmplEvent
	accs   []cache.Access
	paths  []uint8

	ck CompiledKernel // warp 0's one-warp compile; storage reused
}

// tmplEvent is one memory slot of the template. Its transactions are
// accs[start:end]; lo and hi bound its active lanes' start addresses — the
// addresses pinned routing is decided on — which all take one route.
type tmplEvent struct {
	slot       int32
	start, end int32
	lo, hi     int64
	pinned     bool
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

	derived []bool // per batch warp, parallel to warps: compiled from tmpl
	tmpl    warpTemplate

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
	g.work.KernelsCompiled++
	if err := g.buildTemplate(k); err != nil {
		return err
	}

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

// buildTemplate prepares the warp template for kernel k. It leaves
// tmpl.ok false, so every warp compiles the normal way, unless k declares a
// stride whose warp span is a positive multiple of both the L1 line size and
// the write-combining granule, k has a full warp besides warp 0, and every
// memory slot of warp 0 keeps all its lanes on one route. An error is one of
// warp 0's emission errors — the first the normal path reports too, since
// warp 0 opens SM 0's first batch.
func (g *GPU) buildTemplate(k Kernel) error {
	c := &g.comp
	t := &c.tmpl
	t.ok = false
	ws := int64(g.cfg.WarpSize)
	if k.Stride <= 0 || k.Stride > math.MaxInt64/ws || int64(k.Threads) < 2*ws {
		return nil
	}
	span := ws * k.Stride
	if span%g.cfg.L1.LineSize != 0 || span%wcGranule != 0 {
		return nil
	}

	// Compile warp 0 alone. The visitor hook stays off: warp 0's
	// transactions are reported when the main pass derives it (shift 0).
	onMem := c.onMem
	c.onMem = nil
	c.warps = append(c.warps[:0], 0)
	t.ck.reset(k, 1, 1, g.pinnedEpoch)
	err := g.compileBatch(k, 0, &t.ck)
	c.onMem = onMem
	if err != nil {
		return err
	}

	t.events = t.events[:0]
	var start int32
	for i := range c.events {
		ev := &c.events[i]
		te := tmplEvent{slot: ev.slot, start: start, end: ev.txnEnd}
		start = ev.txnEnd
		active := false
		for _, la := range c.evLanes[ev.laneStart : ev.laneStart+ev.laneCount] {
			if la.Op == isa.Nop {
				continue
			}
			pinned := g.pinned(la.Addr)
			if !active {
				te.lo, te.hi, te.pinned, active = la.Addr, la.Addr, pinned, true
				continue
			}
			if pinned != te.pinned {
				return nil // a mixed-route slot: compile every warp the normal way
			}
			te.lo = min(te.lo, la.Addr)
			te.hi = max(te.hi, la.Addr)
		}
		t.events = append(t.events, te)
	}
	t.accs, t.paths = t.accs[:0], t.paths[:0]
	for _, ch := range t.ck.chunks[:t.ck.used] {
		t.accs = append(t.accs, ch.accs...)
		t.paths = append(t.paths, ch.paths...)
	}
	t.span = span
	t.slots = g.laneProgs[0].Len()
	t.compute = t.ck.smCompute[0]
	t.instructions = t.ck.instructions
	t.bytesRequested = t.ck.bytesRequested
	t.ok = true
	return nil
}

// deriveWarp reports whether warp w, with the given lane count, compiles
// from the template. A partial warp never does; a full warp does when, for
// every memory slot, the template's lane envelope shifted by w*span lies
// wholly on the route warp 0's lanes took — inside one pinned range, or
// clear of every range.
func (g *GPU) deriveWarp(w, lanes int) bool {
	t := &g.comp.tmpl
	if !t.ok || lanes < g.cfg.WarpSize {
		return false
	}
	shift := int64(w) * t.span
	for i := range t.events {
		te := &t.events[i]
		if pinned, uniform := g.route(te.lo+shift, te.hi+shift); !uniform || pinned != te.pinned {
			return false
		}
	}
	return true
}

// route classifies the addresses lo..hi (inclusive): pinned when one pinned
// range holds them all, cached when no range holds any; uniform is false
// when a range boundary falls between them.
func (g *GPU) route(lo, hi int64) (pinned, uniform bool) {
	for _, r := range g.ranges {
		if hi < r.lo || lo >= r.hi {
			continue
		}
		return true, lo >= r.lo && hi < r.hi
	}
	return false, true
}

// compileBatch compiles one resident batch: emit lanes, validate, charge
// compute in bulk per run segment, then emit the batch's memory transactions
// in the reference executor's slot-major interleaved order. A warp derived
// from the template skips all of that: it is charged warp 0's compute and
// counts, and appends warp 0's transactions shifted, in the same interleave.
func (g *GPU) compileBatch(k Kernel, smIdx int, ck *CompiledKernel) error {
	c := &g.comp
	t := &c.tmpl
	ws := g.cfg.WarpSize

	// Emission, validation and convergence, warp by warp in batch order —
	// the same error-discovery order as the reference executor.
	c.lanes = c.lanes[:0]
	c.lockstep = c.lockstep[:0]
	c.derived = c.derived[:0]
	for bi, w := range c.warps {
		lanes := ws
		if last := k.Threads - w*ws; last < lanes {
			lanes = last
		}
		c.lanes = append(c.lanes, lanes)
		derived := g.deriveWarp(w, lanes)
		c.derived = append(c.derived, derived)
		if derived {
			c.lockstep = append(c.lockstep, true)
			ck.smWarps[smIdx]++
			ck.smCompute[smIdx] += t.compute
			ck.instructions += t.instructions
			ck.bytesRequested += t.bytesRequested
			if w != 0 {
				g.work.WarpsDerived++
			}
			continue
		}
		for l := 0; l < lanes; l++ {
			p := &g.laneProgs[bi*ws+l]
			p.Reset()
			k.Program(w*ws+l, p)
		}
		g.work.ProgramsEmitted += int64(lanes)
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
		if c.derived[bi] {
			c.evStart[bi] = 0
			c.evEnd[bi] = int32(len(t.events))
			maxLen = max(maxLen, t.slots)
			continue
		}
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
			cur := c.evCur[bi]
			if cur >= c.evEnd[bi] {
				continue
			}
			if c.derived[bi] {
				te := &t.events[cur]
				if te.slot != int32(i) {
					continue
				}
				g.appendShifted(ck, te, int64(c.warps[bi])*t.span)
			} else {
				ev := &c.events[cur]
				if ev.slot != int32(i) {
					continue
				}
				g.emitTxns(ck, ev)
				ev.txnEnd = int32(ck.txnCount())
			}
			c.evCur[bi]++
			if c.onMem != nil {
				c.onMem(c.warps[bi], i)
			}
		}
	}
	return nil
}

// appendShifted appends one template slot's transactions to ck, every
// address plus shift.
func (g *GPU) appendShifted(ck *CompiledKernel, te *tmplEvent, shift int64) {
	t := &g.comp.tmpl
	for j := te.start; j < te.end; j++ {
		a := &t.accs[j]
		ck.appendTxn(t.paths[j], a.Kind, a.Addr+shift, a.Size)
	}
	g.work.TxnsRecorded += int64(te.end - te.start)
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
	start := ck.txnCount()
	var wcBytes int64
	for _, la := range c.evLanes[ev.laneStart : ev.laneStart+ev.laneCount] {
		if la.Op == isa.Nop {
			continue
		}
		ck.bytesRequested += la.Size
		if g.pinned(la.Addr) {
			if kind == cache.Write {
				wcLine := la.Addr / wcGranule
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
		ck.appendTxn(pathPinned, cache.Write, wcLine*wcGranule, size)
	}
	for _, ln := range c.lineBuf {
		ck.appendTxn(pathCached, kind, ln*lineSize, lineSize)
	}
	g.work.TxnsRecorded += int64(ck.txnCount() - start)
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
	return g.replayKernel(ck), nil
}

// replayKernel is LaunchCompiled without its checks. The caller vouches
// that ck is valid and matches this GPU's pinned routing: LaunchCompiled by
// the epoch, the Launcher by its per-GPU validation of a cache entry (which
// may have been compiled on another GPU, under that GPU's epoch). ck is
// only read, so GPUs sharing a cache may replay one entry concurrently.
func (g *GPU) replayKernel(ck *CompiledKernel) Result {
	g.work.KernelsReplayed++
	g.work.TxnsReplayed += int64(ck.txnCount())
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
	return res
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
