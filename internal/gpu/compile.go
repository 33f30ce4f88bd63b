package gpu

import (
	"fmt"
	"math"
	"slices"
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
// The stream is a sequence of ops in global order. An explicit op names a
// range of recorded transactions: cache.Access records plus a parallel path
// byte, kept in fixed-size chunks of chunkLen addressed by pool index, so
// growing the pool allocates the next chunk and never copies what is already
// recorded, and a recompile reuses the chunks the kernel owns. A derived op
// names transactions by reference instead: one template event shifted to a
// warp, or a run of whole resident batches whose every warp derives from the
// template (see Kernel.Stride), so a declared affine kernel stores warp 0's
// transactions and one op per SM, whatever its thread count. One walker
// (walk) turns the ops back into the global transaction order for replay,
// VisitTransactions and Diff: it yields runs of consecutive same-path
// transactions, an explicit run as a direct slice of one chunk, derived
// transactions expanded into a chunkLen-bounded scratch. A run is split at
// chunk boundaries, at the edge of an explicit op and when the scratch
// fills, so neither a replay group nor the replay's result scratch ever
// exceeds one chunk. Diff walks one kernel's ops and reads the other's
// beside it a piece at a time (cursor), so it holds neither stream whole.
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
//     reference executor lives in the package's tests, as the differential
//     suite's oracle; no binary reaches it.
//   - Per-SM memory latency is summed per transaction in the original
//     global order, reading the batch kernels' per-access results, so the
//     float addition sequence matches the reference exactly — including the
//     fractional latencies some device catalogs use.
//   - Transactions on the cached path and the pinned path share no mutable
//     state below except DRAM's integer counters, so servicing consecutive
//     same-path groups together preserves every observable.
//   - DoBatch, and the pinned route's DoRun, are byte-identical to
//     per-access Do in order, so splitting an ordered same-path group
//     anywhere — at a chunk boundary, an op's edge or a full scratch —
//     issues the same sequence of accesses, and the latencies are still
//     summed in global order.
//   - A kernel declaring Stride (see Kernel) compiles warp 0 the normal way
//     into a template and derives each other full warp w as every template
//     transaction with its address plus D = w*WarpSize*Stride. Under the
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
//     way. A derived warp's transactions are never written out: its ops
//     keep its place in the slot-major batch interleave, and the walker
//     adds D as it expands them, so the stream order and the (warp, slot)
//     tags VisitTransactions reports are unchanged. Its compute is charged
//     as warp 0's whole-cycle total, exact by the integral-cost argument
//     above.
type CompiledKernel struct {
	name      string
	warpCount int
	resident  int // warps per resident batch, for expanding batch runs

	instructions   int64
	bytesRequested int64
	txns           int64 // transactions in the stream, derived included
	txnBytes       int64

	smCompute []units.Cycles
	smWarps   []int
	smOpEnd   []int32 // exclusive end index into ops, per SM

	ops []streamOp

	// The explicit transaction pool, split into fixed-size chunks:
	// transaction i lives in chunks[i/chunkLen] at offset i%chunkLen. Each
	// chunk holds ready-to-issue cache accesses plus a parallel path byte,
	// so the walker hands contiguous same-path runs to the batch cache
	// kernels without copying. used counts the chunks in play (tail is the
	// last of them); chunks past used are owned spares a recompile reuses.
	chunks []*txnChunk
	used   int
	tail   *txnChunk

	// The warp template derived ops refer to: warp 0's transactions, one
	// event per memory slot, and the address shift from one warp to the
	// next. Empty unless the kernel derives warps.
	span       int64
	tmplEvents []tmplEvent
	tmplAccs   []cache.Access

	epoch uint64
	valid bool
}

// streamOp is one entry of the op stream; a and b mean what kind says.
type streamOp struct {
	kind uint8
	a, b int32
}

// Op kinds.
const (
	opTxns    uint8 = iota // pool transactions [a, b)
	opShift                // template event a shifted to warp b
	opBatches              // b consecutive resident batches of one SM, every warp derived; the first opens with warp a
)

// tmplEvent is one memory slot of a warp template: its transactions
// tmplAccs[start:end], all on one path, and lo and hi, which bound its
// active lanes' start addresses — the addresses pinned routing is decided
// on.
type tmplEvent struct {
	slot, start, end int32
	lo, hi           int64
	path             uint8
}

const (
	pathCached uint8 = iota // through the issuing SM's L1
	pathPinned              // down the pinned (zero-copy) path
)

// chunkLen is the transaction capacity of one pool chunk (a power of two,
// so pool indices split with a shift and a mask). It also bounds a walker
// run, and with it the replay's expansion and per-access result scratch.
const (
	chunkShift = 13
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// firstChunkLen is the initial capacity of a kernel's first chunk, which
// doubles up to chunkLen; small kernels do not pay for a whole chunk.
const firstChunkLen = 256

// txnChunk is one fixed-capacity slice of the transaction pool. Every chunk
// but the last in use is full; only a kernel's first chunk may have less
// than chunkLen capacity, and only while the pool fits in it.
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
func (ck *CompiledKernel) Transactions() int64 { return ck.txns }

// Diff reports the first way ck and o would replay differently, or nil when
// they would not: the name, warp count, instruction, requested-byte and
// transaction totals, per-SM compute and warp counts, and every SM's
// transactions in order. How the stream is stored — explicit or derived
// ops, chunk capacity, spare chunks — and the pinned epoch are bookkeeping,
// not content. The declared-kernel differential tests use it to prove that
// a kernel compiled from a warp template is the kernel its undeclared twin
// compiles to.
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
	case ck.txns != o.txns:
		return fmt.Errorf("transactions %d vs %d", ck.txns, o.txns)
	case len(ck.smCompute) != len(o.smCompute):
		return fmt.Errorf("SMs %d vs %d", len(ck.smCompute), len(o.smCompute))
	}
	var buf []cache.Access
	other := cursor{ck: o, piece: make([]pathAccess, 0, chunkLen)}
	for i := range ck.smCompute {
		switch {
		case ck.smCompute[i] != o.smCompute[i]:
			return fmt.Errorf("SM %d compute %v vs %v", i, ck.smCompute[i], o.smCompute[i])
		case ck.smWarps[i] != o.smWarps[i]:
			return fmt.Errorf("SM %d warps %d vs %d", i, ck.smWarps[i], o.smWarps[i])
		}
		other.rest = o.smOps(i)
		if err := ck.diffSM(i, &other, &buf); err != nil {
			return err
		}
	}
	return nil
}

// diffSM compares SM si's transactions in ck with what other reads, in
// order. ck's stream is walked as replay walks it and the other kernel's is
// read beside it a bounded piece at a time, so neither is copied whole.
func (ck *CompiledKernel) diffSM(si int, other *cursor, buf *[]cache.Access) error {
	var piece []pathAccess
	var err error
	n := 0 // transactions of ck compared so far
	ck.walk(ck.smOps(si), buf, func(path uint8, accs []cache.Access) {
		for _, a := range accs {
			if err != nil {
				return
			}
			if len(piece) == 0 {
				if piece = other.next(); len(piece) == 0 {
					err = fmt.Errorf("SM %d transactions: more than %d vs %d", si, n, n)
					return
				}
			}
			if b := piece[0]; b != (pathAccess{a, path}) {
				err = fmt.Errorf("SM %d transaction %d: %+v path %d vs %+v path %d", si, n, a, path, b.Access, b.path)
				return
			}
			piece = piece[1:]
			n++
		}
	})
	if err == nil && (len(piece) > 0 || len(other.next()) > 0) {
		err = fmt.Errorf("SM %d transactions: %d vs more than %d", si, n, n)
	}
	return err
}

// pathAccess is one transaction of a walked stream and its path.
type pathAccess struct {
	cache.Access
	path uint8
}

// cursor reads the transactions of an op stream in order, one bounded
// piece at a time: an op, with a pool range cut at chunkLen transactions
// and a run of batches cut into single batches, walked as replay walks it.
type cursor struct {
	ck      *CompiledKernel
	rest    []streamOp
	head    streamOp // what is left of the op being read, while pending
	pending bool
	op      [1]streamOp // the piece being walked
	piece   []pathAccess
	buf     []cache.Access
}

// next returns the next piece of the stream, empty at its end. The piece is
// valid until the following call.
func (c *cursor) next() []pathAccess {
	c.piece = c.piece[:0]
	add := func(path uint8, accs []cache.Access) {
		for _, a := range accs {
			c.piece = append(c.piece, pathAccess{a, path})
		}
	}
	for len(c.piece) == 0 && (c.pending || len(c.rest) > 0) {
		if !c.pending {
			c.head, c.rest, c.pending = c.rest[0], c.rest[1:], true
		}
		op := c.head
		switch {
		case op.kind == opTxns && op.b-op.a > chunkLen:
			op.b = op.a + chunkLen
			c.head.a = op.b
		case op.kind == opBatches && op.b > 1:
			op.b = 1
			c.head.a += int32(len(c.ck.smCompute) * c.ck.resident)
			c.head.b--
		default:
			c.pending = false
		}
		c.op[0] = op
		c.ck.walk(c.op[:], &c.buf, add)
	}
	return c.piece
}

// smOps returns SM si's part of the op stream.
func (ck *CompiledKernel) smOps(si int) []streamOp {
	lo := int32(0)
	if si > 0 {
		lo = ck.smOpEnd[si-1]
	}
	return ck.ops[lo:ck.smOpEnd[si]]
}

// walk yields the transactions ops name, in stream order, as runs of
// consecutive same-path transactions of at most chunkLen each. An explicit
// op's transactions go out as direct slices of their chunks; derived ones
// are expanded into *buf (grown once to chunkLen), with consecutive
// same-path events merged into one run. A yielded slice is valid only until
// yield returns.
func (ck *CompiledKernel) walk(ops []streamOp, buf *[]cache.Access, yield func(path uint8, accs []cache.Access)) {
	if cap(*buf) < chunkLen {
		*buf = make([]cache.Access, chunkLen)
	}
	x := expander{buf: (*buf)[:chunkLen]}
	sms := len(ck.smCompute)
	for _, op := range ops {
		switch op.kind {
		case opTxns:
			x.flush(yield)
			ck.walkPool(int(op.a), int(op.b), yield)
		case opShift:
			te := &ck.tmplEvents[op.a]
			x.shifted(te.path, ck.tmplAccs[te.start:te.end], int64(op.b)*ck.span, 0, 1, yield)
		case opBatches:
			for b := 0; b < int(op.b); b++ {
				start := int(op.a) + b*sms*ck.resident
				n := min(ck.resident, (ck.warpCount-start+sms-1)/sms)
				for e := range ck.tmplEvents {
					te := &ck.tmplEvents[e]
					x.shifted(te.path, ck.tmplAccs[te.start:te.end], int64(start)*ck.span, int64(sms)*ck.span, n, yield)
				}
			}
		}
	}
	x.flush(yield)
}

// walkPool yields pool transactions [lo, hi) as direct slices of their
// chunks, split where the path changes and at chunk boundaries.
func (ck *CompiledKernel) walkPool(lo, hi int, yield func(path uint8, accs []cache.Access)) {
	for lo < hi {
		c := ck.chunks[lo>>chunkShift]
		i := lo & chunkMask
		end := min(len(c.accs), i+hi-lo)
		for t := i; t < end; {
			p := c.paths[t]
			r := t + 1
			for r < end && c.paths[r] == p {
				r++
			}
			yield(p, c.accs[t:r])
			t = r
		}
		lo += end - i
	}
}

// expander gathers derived transactions into a walker's scratch, buf[:n],
// and yields them as same-path runs. yield is passed to each call rather
// than kept here: handing buf to yield leaks what x holds, and a kept yield
// would escape with it.
type expander struct {
	buf  []cache.Access
	n    int
	path uint8
}

// shifted appends n copies of src, all on path, copy k with every address
// plus shift+k*step: one template event for n warps of a batch. It yields
// the run gathered so far first if that is on the other path, and whenever
// the next copy does not fit; an event larger than the whole scratch goes
// out in scratch-sized pieces.
func (x *expander) shifted(path uint8, src []cache.Access, shift, step int64, n int, yield func(uint8, []cache.Access)) {
	if path != x.path {
		x.flush(yield)
		x.path = path
	}
	for ; n > 0; n, shift = n-1, shift+step {
		s := src
		if x.n+len(s) > len(x.buf) {
			x.flush(yield)
			for len(s) > len(x.buf) {
				x.n = putShifted(x.buf, s, shift)
				s = s[x.n:]
				x.flush(yield)
			}
		}
		x.n += putShifted(x.buf[x.n:], s, shift)
	}
}

// putShifted copies as much of src as fits into dst, every address plus
// shift, and returns the count copied.
func putShifted(dst, src []cache.Access, shift int64) int {
	dst = dst[:min(len(dst), len(src))]
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = src[i]
		dst[i].Addr += shift
	}
	return len(dst)
}

func (x *expander) flush(yield func(uint8, []cache.Access)) {
	if x.n > 0 {
		yield(x.path, x.buf[:x.n])
		x.n = 0
	}
}

// poolLen is the number of transactions in the pool: the pool index the
// next appended transaction receives.
func (ck *CompiledKernel) poolLen() int {
	if ck.used == 0 {
		return 0
	}
	return (ck.used-1)<<chunkShift + len(ck.tail.accs)
}

// storageBytes is the storage the kernel retains: the capacity of every
// pool chunk it owns, in use and spare (one Access plus one path byte per
// slot), its ops, its template and its per-SM arrays.
func (ck *CompiledKernel) storageBytes() int64 {
	const acc = int64(unsafe.Sizeof(cache.Access{}))
	n := int64(cap(ck.ops))*int64(unsafe.Sizeof(streamOp{})) +
		int64(cap(ck.tmplEvents))*int64(unsafe.Sizeof(tmplEvent{})) +
		int64(cap(ck.tmplAccs))*acc +
		int64(cap(ck.smCompute))*int64(unsafe.Sizeof(units.Cycles(0))+unsafe.Sizeof(int(0))+unsafe.Sizeof(int32(0)))
	for _, c := range ck.chunks {
		n += int64(cap(c.accs))*acc + int64(cap(c.paths))
	}
	return n
}

func (ck *CompiledKernel) reset(k Kernel, warpCount, sms, resident int, epoch uint64) {
	ck.name = k.Name
	ck.warpCount = warpCount
	ck.resident = resident
	ck.instructions = 0
	ck.bytesRequested = 0
	ck.txns = 0
	ck.txnBytes = 0
	if cap(ck.smCompute) < sms {
		ck.smCompute = make([]units.Cycles, sms)
		ck.smWarps = make([]int, sms)
		ck.smOpEnd = make([]int32, sms)
	}
	ck.smCompute = ck.smCompute[:sms]
	ck.smWarps = ck.smWarps[:sms]
	ck.smOpEnd = ck.smOpEnd[:sms]
	for i := 0; i < sms; i++ {
		ck.smCompute[i] = 0
		ck.smWarps[i] = 0
		ck.smOpEnd[i] = 0
	}
	ck.clearStream()
	ck.span = 0
	ck.tmplEvents = ck.tmplEvents[:0]
	ck.tmplAccs = ck.tmplAccs[:0]
	ck.epoch = epoch
	ck.valid = false
}

// clearStream empties the op stream and the pool, keeping every chunk as an
// owned spare, and the template.
func (ck *CompiledKernel) clearStream() {
	ck.ops = ck.ops[:0]
	for _, c := range ck.chunks[:ck.used] {
		c.accs = c.accs[:0]
		c.paths = c.paths[:0]
	}
	ck.used = 0
	ck.tail = nil
}

// appendTxn records one explicit transaction in the pool. The caller names
// it in the op stream (appendPool).
func (ck *CompiledKernel) appendTxn(path uint8, kind cache.Kind, addr, size int64) {
	c := ck.tail
	if c == nil || len(c.accs) == cap(c.accs) {
		c = ck.grow()
	}
	c.accs = append(c.accs, cache.Access{Addr: addr, Size: size, Kind: kind})
	c.paths = append(c.paths, path)
	ck.txns++
	ck.txnBytes += size
}

// appendPool names pool transactions [lo, hi) in the op stream, extending
// the last op when it is an explicit op of the same SM (at index base or
// later) ending at lo.
func (ck *CompiledKernel) appendPool(base, lo, hi int) {
	if lo == hi {
		return
	}
	if n := len(ck.ops); n > base && ck.ops[n-1].kind == opTxns && ck.ops[n-1].b == int32(lo) {
		ck.ops[n-1].b = int32(hi)
		return
	}
	ck.ops = append(ck.ops, streamOp{kind: opTxns, a: int32(lo), b: int32(hi)})
}

// appendBatch names an all-derived resident batch opening with warp first
// in the op stream, extending the last op when it is a run of this SM's
// batches (at index base or later) that ends just before this one.
func (ck *CompiledKernel) appendBatch(base, first, sms int) {
	if n := len(ck.ops); n > base {
		if op := &ck.ops[n-1]; op.kind == opBatches && int(op.a)+int(op.b)*sms*ck.resident == first {
			op.b++
			return
		}
	}
	ck.ops = append(ck.ops, streamOp{kind: opBatches, a: int32(first), b: 1})
}

// grow makes room for one more transaction and returns the chunk it goes
// in: a first chunk below chunkLen doubles in place; otherwise the pool
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
// way into its own one-warp stream, whose compute and counts every derived
// warp is charged. Its memory slots and their transactions are copied into
// the kernel being compiled (tmplEvents, tmplAccs), which derived ops refer
// to.
type warpTemplate struct {
	ok    bool           // the kernel being compiled derives its full warps from this
	slots int            // warp 0's program length
	ck    CompiledKernel // warp 0's one-warp compile; storage reused
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
	opBase  int // index of the current SM's first op

	// onMem, when set, is called right after each memory warp-instruction
	// joins the stream, with the issuing warp and its instruction slot. A
	// compile with it set gives every derived warp-instruction its own op
	// (no opBatches), so the hook sees each one. VisitTransactions sets it;
	// compiles for a launch leave it nil.
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

// Compile builds a fresh compiled form of the kernel (see CompileInto), for
// a caller that replays it itself with LaunchCompiled. Model runs go through
// a Launcher instead, whose compiles the GPU's KernelCache keeps.
func (g *GPU) Compile(k Kernel) (*CompiledKernel, error) {
	ck := &CompiledKernel{}
	if err := g.CompileInto(k, ck); err != nil {
		return nil, err
	}
	return ck, nil
}

// CompileInto compiles the kernel into ck, reusing its storage. It performs
// every validation a launch needs (thread count, program validity, SIMT
// convergence) and reports the reference executor's errors, but before any
// cache state is touched.
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
	ck.reset(k, warpCount, len(g.sms), resident, g.pinnedEpoch)
	g.work.KernelsCompiled++
	if err := g.buildTemplate(k, ck); err != nil {
		return err
	}

	c := &g.comp
	for smIdx := range g.sms {
		c.opBase = len(ck.ops)
		for start := smIdx; start < warpCount; start += len(g.sms) * resident {
			c.warps = c.warps[:0]
			for w := start; w < warpCount && len(c.warps) < resident; w += len(g.sms) {
				c.warps = append(c.warps, w)
			}
			if err := g.compileBatch(k, smIdx, ck); err != nil {
				return err
			}
		}
		ck.smOpEnd[smIdx] = int32(len(ck.ops))
	}
	ck.valid = true
	return nil
}

// buildTemplate prepares the warp template for kernel k and copies its
// transactions into ck. It leaves tmpl.ok false and ck's template empty, so
// every warp compiles the normal way, unless k declares a
// stride whose warp span is a positive multiple of both the L1 line size and
// the write-combining granule, k has a full warp besides warp 0, and every
// memory slot of warp 0 keeps all its lanes on one route. An error is one of
// warp 0's emission errors — the first the normal path reports too, since
// warp 0 opens SM 0's first batch.
func (g *GPU) buildTemplate(k Kernel, ck *CompiledKernel) error {
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
	c.opBase = 0
	t.ck.reset(k, 1, 1, 1, g.pinnedEpoch)
	err := g.compileBatch(k, 0, &t.ck)
	c.onMem = onMem
	if err != nil {
		return err
	}

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
			path := pathCached
			if g.pinned(la.Addr) {
				path = pathPinned
			}
			if !active {
				te.lo, te.hi, te.path, active = la.Addr, la.Addr, path, true
				continue
			}
			if path != te.path {
				// A mixed-route slot: compile every warp the normal way.
				ck.tmplEvents = ck.tmplEvents[:0]
				return nil
			}
			te.lo = min(te.lo, la.Addr)
			te.hi = max(te.hi, la.Addr)
		}
		ck.tmplEvents = append(ck.tmplEvents, te)
	}
	for _, ch := range t.ck.chunks[:t.ck.used] {
		ck.tmplAccs = append(ck.tmplAccs, ch.accs...)
	}
	ck.span = span
	t.slots = g.laneProgs[0].Len()
	t.ok = true
	return nil
}

// deriveWarp reports whether warp w, with the given lane count, compiles
// from the template. A partial warp never does; a full warp does when, for
// every memory slot, the template's lane envelope shifted by w*span lies
// wholly on the route warp 0's lanes took — inside one pinned range, or
// clear of every range.
func (g *GPU) deriveWarp(ck *CompiledKernel, w, lanes int) bool {
	if !g.comp.tmpl.ok || lanes < g.cfg.WarpSize {
		return false
	}
	shift := int64(w) * ck.span
	for i := range ck.tmplEvents {
		te := &ck.tmplEvents[i]
		if pinned, uniform := g.route(te.lo+shift, te.hi+shift); !uniform || pinned != (te.path == pathPinned) {
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
// counts, and each of its memory slots joins the interleave as an op naming
// the template event and the warp. A batch whose every warp derives is one
// opBatches op, or extends the SM's last one.
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
		derived := g.deriveWarp(ck, w, lanes)
		c.derived = append(c.derived, derived)
		if derived {
			c.lockstep = append(c.lockstep, true)
			ck.smWarps[smIdx]++
			ck.smCompute[smIdx] += t.ck.smCompute[0]
			ck.instructions += t.ck.instructions
			ck.bytesRequested += t.ck.bytesRequested
			ck.txns += t.ck.txns
			ck.txnBytes += t.ck.txnBytes
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
	if c.onMem == nil && !slices.Contains(c.derived, false) {
		ck.appendBatch(c.opBase, c.warps[0], len(g.sms))
		return nil
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
			c.evEnd[bi] = int32(len(ck.tmplEvents))
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
				te := &ck.tmplEvents[cur]
				if te.slot != int32(i) {
					continue
				}
				ck.ops = append(ck.ops, streamOp{kind: opShift, a: cur, b: int32(c.warps[bi])})
			} else {
				ev := &c.events[cur]
				if ev.slot != int32(i) {
					continue
				}
				lo := ck.poolLen()
				g.emitTxns(ck, ev)
				ev.txnEnd = int32(ck.poolLen())
				ck.appendPool(c.opBase, lo, int(ev.txnEnd))
			}
			c.evCur[bi]++
			if c.onMem != nil {
				c.onMem(c.warps[bi], i)
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
	start := ck.poolLen()
	var wcBytes int64
	for _, la := range c.evLanes[ev.laneStart : ev.laneStart+ev.laneCount] {
		if la.Op == isa.Nop {
			continue
		}
		ck.bytesRequested += la.Size
		if g.pinned(la.Addr) {
			if kind == cache.Write {
				wcLine := la.Addr / wcGranule
				if !slices.Contains(c.wcBuf, wcLine) {
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
			if !slices.Contains(c.lineBuf, ln) {
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
	g.work.TxnsRecorded += int64(ck.poolLen() - start)
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

// replayScratch holds the replay executor's reusable buffers: the walker's
// expansion scratch, the per-access results and the batch kernels' scratch.
type replayScratch struct {
	accs  []cache.Access
	outs  []cache.Result
	batch cache.Batch
}

// LaunchCompiled replays a compiled kernel: it restores the per-SM compile-
// time accumulators, drives the recorded transaction stream through the
// batch cache kernels in original order, and applies the shared interval-
// model tail. The result is byte-identical to the per-access reference
// executor's (the differential tests' oracle) on the source kernel. It is
// an error to replay a kernel compiled under different pinned routing (see
// PinnedEpoch) or one whose compile failed.
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
	g.work.TxnsReplayed += ck.txns
	before := g.snapStats()
	res := Result{Warps: ck.warpCount, Instructions: ck.instructions, Transactions: ck.txns,
		TransactionBytes: ck.txnBytes, BytesRequested: ck.bytesRequested}

	for si, s := range g.sms {
		g.replaySM(ck, si, s)
	}

	g.finishResult(&res, before, ck.warpCount, g.resident())
	return res
}

// replaySM restores SM si's compile-time accumulators and drives its part
// of the stream through the batch cache kernels, run by run.
func (g *GPU) replaySM(ck *CompiledKernel, si int, s *sm) {
	s.computeCycles = ck.smCompute[si]
	s.memLatency = 0
	s.warps = ck.smWarps[si]
	ck.walk(ck.smOps(si), &g.replay.accs, func(path uint8, accs []cache.Access) {
		g.replayGroup(s, path, accs)
	})
}

// replayGroup services one run of consecutive same-path transactions, from
// the walker, so never over chunkLen: cached ones through the batch cache
// kernels, pinned ones through DoRun. It adds their latencies into the SM
// in global order, one add at a time, into a local stored once: the same
// float sequence as the reference executor's per-access adds.
func (g *GPU) replayGroup(s *sm, path uint8, accs []cache.Access) {
	lat := s.memLatency
	if path == pathPinned {
		if g.heat != nil {
			// Pinned transactions bypass the caches, so the replay records
			// them, a run of equal ones on one page at once, in stream order.
			for j, k := 0, 0; j < len(accs); j = k {
				a, pg := accs[j], g.heat.Page(accs[j].Addr)
				for k = j + 1; k < len(accs) && accs[k].Kind == a.Kind && accs[k].Size == a.Size && g.heat.Page(accs[k].Addr) == pg; k++ {
				}
				g.heat.RecordRun(a.Addr, a.Size, a.Kind == cache.Write, true, int64(k-j))
			}
		}
		for j := 0; j < len(accs); {
			n, first, rest := g.pinnedPath.DoRun(accs[j:])
			g.work.PinnedRuns++
			lat += first
			for k := 1; k < n; k++ {
				lat += rest
			}
			j += n
		}
		s.memLatency = lat
		return
	}
	rs := &g.replay
	if cap(rs.outs) < len(accs) {
		rs.outs = make([]cache.Result, len(accs))
	}
	outs := rs.outs[:len(accs)]
	s.l1.DoBatch(accs, outs, &rs.batch)
	for j := range outs {
		lat += outs[j].Latency
	}
	s.memLatency = lat
}
