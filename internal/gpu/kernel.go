package gpu

import (
	"fmt"

	"igpucomm/internal/cache"
	"igpucomm/internal/isa"
	"igpucomm/internal/memdev"
	"igpucomm/internal/units"
)

// Kernel describes one GPU launch. Program is called once per thread and
// appends that thread's instructions; all threads that share a warp must emit
// the same opcode sequence (SIMT convergence — model data-dependent work with
// predication, i.e. emit the ops anyway, as real GPUs do).
//
// Program must be deterministic: calling it twice for the same thread id must
// emit the same instructions. The batch executor compiles the emitted trace
// once and replays it, so a non-deterministic emitter would silently
// desynchronize from what a per-access execution would have done.
//
// Stride optionally declares the kernel affine: thread tid's program is
// thread 0's with every memory address plus tid*Stride — the same opcodes,
// sizes and run structure, no lane masked off. Zero means undeclared. The
// compile pass then emits and coalesces warp 0 only and derives every other
// full warp by a uniform address shift (see compile.go), and the kernel
// cache fingerprints thread 0's program instead of every thread's. The
// declaration is a promise the compiler does not re-check: declare it only
// where it holds for every thread, and prove it with the declared-vs-
// undeclared differential tests. The reference executor ignores it.
type Kernel struct {
	Name    string
	Threads int
	Program func(tid int, p *isa.Program)
	Stride  int64
}

// Result reports the timing and traffic of one kernel launch.
type Result struct {
	// Time is the kernel execution time — what a profiler reports as
	// kernel duration. The software launch overhead is NOT included; it is
	// returned separately so end-to-end accounting can add it exactly once.
	Time units.Latency
	// LaunchOverhead is the software launch cost of this launch.
	LaunchOverhead units.Latency

	Warps        int
	Instructions int64

	// Transactions is the number of memory transactions issued after
	// coalescing (the t_n of the paper's eqn 2); TransactionBytes is their
	// total size (t_n * t_size).
	Transactions     int64
	TransactionBytes int64

	// BytesRequested sums the bytes the threads asked for, before
	// coalescing and line inflation. Requested-throughput uses this.
	BytesRequested int64

	// Cache/traffic deltas for this launch only.
	L1     cache.Stats
	LLC    cache.Stats
	DRAM   memdev.Stats
	Pinned memdev.Stats

	// Bound records which term of the interval model dominated:
	// "compute", "latency", "llc-bw", "dram-bw" or "pinned-bw".
	Bound string

	// Occupancy is the fraction of the GPU's resident-warp capacity the
	// launch filled (min(1, warps / (SMs * residentWarps))).
	Occupancy float64
	// WarpIPC is warp-instructions retired per SM-cycle of kernel time —
	// 1.0 means the issue pipes never stalled.
	WarpIPC float64
}

// ReqThroughput is the requested-bytes throughput of the launch — the
// quantity the paper's Table I reports as GPU cache throughput.
func (r Result) ReqThroughput() units.BytesPerSecond {
	if r.Time <= 0 {
		return 0
	}
	return units.BytesPerSecond(float64(r.BytesRequested) / r.Time.Seconds())
}

// L1HitRate is the per-launch GPU L1 hit rate (eqn 2's hit_rate_L1_GPU).
func (r Result) L1HitRate() float64 { return r.L1.HitRate() }

// Launch executes the kernel and returns its timing and traffic. It is an
// error for lanes of one warp to diverge in opcode sequence, for the kernel
// to have no threads, or for a program to emit an invalid instruction.
//
// Warps are distributed round-robin over SMs. Each SM executes its warps in
// resident batches, interleaving instruction-by-instruction within a batch —
// the warp-scheduler behaviour that makes per-warp working sets contend for
// the SM's L1.
//
// Launch compiles the kernel's transaction trace and replays it through the
// batch cache kernels (the compiled artifact is scratch-reused, so a
// steady-state Launch allocates nothing). Under SetReferenceMode it runs the
// per-access reference executor instead; both paths produce byte-identical
// results, except that the compiled path reports emission errors before
// touching any cache state while the reference path may have executed
// earlier resident batches first.
func (g *GPU) Launch(k Kernel) (Result, error) {
	if g.refMode {
		return g.LaunchReference(k)
	}
	if err := g.CompileInto(k, &g.compileScratch); err != nil {
		return Result{}, err
	}
	return g.LaunchCompiled(&g.compileScratch)
}

// LaunchReference executes the kernel with the original per-access executor:
// emit every lane, walk every slot, push each coalesced transaction through
// the interface-dispatched cache path. It is the ground truth the compiled
// path is differentially tested against.
func (g *GPU) LaunchReference(k Kernel) (Result, error) {
	if k.Threads <= 0 {
		return Result{}, fmt.Errorf("kernel %s: thread count %d must be positive", k.Name, k.Threads)
	}
	if k.Program == nil {
		return Result{}, fmt.Errorf("kernel %s: nil program", k.Name)
	}

	// Snapshot counters so the result reports launch-only deltas.
	before := g.snapStats()
	for _, s := range g.sms {
		s.computeCycles = 0
		s.memLatency = 0
		s.warps = 0
	}

	var res Result
	warpCount := (k.Threads + g.cfg.WarpSize - 1) / g.cfg.WarpSize
	res.Warps = warpCount

	resident := g.resident()
	g.ensureLaneBuffers(resident)

	// Per-SM warp lists (round-robin assignment).
	for smIdx, s := range g.sms {
		for start := smIdx; start < warpCount; start += len(g.sms) * resident {
			// Collect this resident batch: warps start, start+SMs, ...
			batch := batch{}
			for w := start; w < warpCount && len(batch.warps) < resident; w += len(g.sms) {
				batch.warps = append(batch.warps, w)
			}
			if err := g.runBatch(k, s, &batch, &res); err != nil {
				return Result{}, err
			}
		}
	}

	g.finishResult(&res, before, warpCount, resident)
	return res, nil
}

// statSnap captures the traffic counters Launch reports deltas against.
type statSnap struct {
	l1     cache.Stats
	llc    cache.Stats
	dram   memdev.Stats
	pinned memdev.Stats
}

func (g *GPU) snapStats() statSnap {
	s := statSnap{l1: g.L1Stats(), llc: g.llc.Stats(), dram: g.dramPath.Stats()}
	if g.pinnedPath != nil {
		s.pinned = g.pinnedPath.Stats()
	}
	return s
}

func (g *GPU) resident() int {
	if g.cfg.ResidentWarps == 0 {
		return 16
	}
	return g.cfg.ResidentWarps
}

// finishResult applies the interval (roofline) model and the counter deltas.
// It is shared by the reference and compiled executors: both leave the
// per-SM accumulators (computeCycles, memLatency, warps) populated and the
// caches mutated, and this tail derives time, bound, occupancy and IPC.
func (g *GPU) finishResult(res *Result, before statSnap, warpCount, resident int) {
	var worstSM units.Latency
	var worstIsCompute bool
	mlp := g.cfg.WarpMLP
	if mlp == 0 {
		mlp = 8
	}
	for _, s := range g.sms {
		if s.warps == 0 {
			continue
		}
		compute := s.computeCycles.Lat(g.cfg.Freq)
		overlap := s.warps * mlp
		if overlap > g.cfg.MaxInflight {
			overlap = g.cfg.MaxInflight
		}
		mem := s.memLatency / units.Latency(overlap)
		smTime := compute
		isCompute := true
		if mem > smTime {
			smTime = mem
			isCompute = false
		}
		if smTime > worstSM {
			worstSM = smTime
			worstIsCompute = isCompute
		}
	}

	res.L1 = deltaCache(g.L1Stats(), before.l1)
	res.LLC = deltaCache(g.llc.Stats(), before.llc)
	res.DRAM = deltaMem(g.dramPath.Stats(), before.dram)
	if g.pinnedPath != nil {
		res.Pinned = deltaMem(g.pinnedPath.Stats(), before.pinned)
	}

	time := worstSM
	bound := "latency"
	if worstIsCompute {
		bound = "compute"
	}
	if t := bwTime(res.LLC.BytesIn, g.cfg.LLCBandwidth); t > time {
		time, bound = t, "llc-bw"
	}
	if t := bwTime(res.DRAM.Bytes(), g.cfg.DRAMBandwidth); t > time {
		time, bound = t, "dram-bw"
	}
	if t := bwTime(res.Pinned.Bytes(), g.pinnedBW); t > time {
		time, bound = t, "pinned-bw"
	}
	res.Time = time
	res.LaunchOverhead = g.cfg.LaunchOverhead
	res.Bound = bound

	capacity := float64(len(g.sms) * resident)
	res.Occupancy = float64(warpCount) / capacity
	if res.Occupancy > 1 {
		res.Occupancy = 1
	}
	if time > 0 {
		warpInstrs := float64(res.Instructions) / float64(g.cfg.WarpSize)
		smCycles := time.Seconds() * float64(g.cfg.Freq) * float64(len(g.sms))
		if smCycles > 0 {
			res.WarpIPC = warpInstrs / smCycles
		}
	}
}

type batch struct {
	warps []int // global warp indices resident together on one SM
	lanes []int // lane count per warp, parallel to warps
}

func (g *GPU) ensureLaneBuffers(resident int) {
	need := resident * g.cfg.WarpSize
	if len(g.laneProgs) < need {
		g.laneProgs = make([]isa.Program, need)
	}
	if len(g.laneIn) < need {
		g.laneIn = make([][]isa.Instr, need)
	}
}

// runBatch materializes the batch's lane programs, checks SIMT convergence,
// then executes the batch interleaved instruction-by-instruction.
func (g *GPU) runBatch(k Kernel, s *sm, b *batch, res *Result) error {
	ws := g.cfg.WarpSize
	b.lanes = b.lanes[:0]
	for bi, w := range b.warps {
		lanes := ws
		if last := k.Threads - w*ws; last < lanes {
			lanes = last
		}
		b.lanes = append(b.lanes, lanes)
		for l := 0; l < lanes; l++ {
			p := &g.laneProgs[bi*ws+l]
			p.Reset()
			k.Program(w*ws+l, p)
			g.laneIn[bi*ws+l] = p.Instrs()
		}
		// Convergence and validity check: all lanes must agree on each
		// slot's opcode, except that a lane may be masked off with a Nop
		// (predication — see isa.Program.PadTo).
		ref := g.laneIn[bi*ws]
		for i, in := range ref {
			if err := in.Validate(); err != nil {
				return fmt.Errorf("kernel %s: warp %d lane 0 instr %d: %w", k.Name, w, i, err)
			}
		}
		for l := 1; l < lanes; l++ {
			other := g.laneIn[bi*ws+l]
			if len(other) != len(ref) {
				return fmt.Errorf("kernel %s: warp %d diverges: lane 0 has %d instrs, lane %d has %d",
					k.Name, w, len(ref), l, len(other))
			}
			if err := checkLane(k.Name, w, g.laneIn[bi*ws:bi*ws+l+1]); err != nil {
				return err
			}
		}
		s.warps++
	}

	maxLen := 0
	for bi := range b.warps {
		if n := len(g.laneIn[bi*ws]); n > maxLen {
			maxLen = n
		}
	}

	lineSize := g.cfg.L1.LineSize
	// Coalescing scratch, reused across every warp-instruction: a lane can
	// touch at most two cache lines, and WC merging caps at one line per
	// lane, so these never regrow after the first warp.
	lineBuf := make([]int64, 0, 2*ws)
	wcBuf := make([]int64, 0, ws)
	for i := 0; i < maxLen; i++ {
		for bi := range b.warps {
			ref := g.laneIn[bi*ws]
			if i >= len(ref) {
				continue
			}
			lanes := b.lanes[bi]
			// The slot's opcode is the first non-Nop among the lanes
			// (masked lanes ride along, as on hardware).
			in := ref[i]
			if in.Op == isa.Nop {
				for l := 1; l < lanes; l++ {
					if cand := g.laneIn[bi*ws+l][i]; cand.Op != isa.Nop {
						in = cand
						break
					}
				}
			}
			res.Instructions += int64(lanes)
			s.computeCycles += g.cfg.Costs.Cost(in.Op)
			if !in.Op.IsMemory() {
				continue
			}
			kind := cache.Read
			if in.Op == isa.StGlobal {
				kind = cache.Write
			}

			// Split lanes into pinned and cacheable groups. Mixed warps
			// are legal (uniform opcode, arbitrary addresses); Nop lanes
			// are masked off.
			lineBuf = lineBuf[:0]
			wcBuf = wcBuf[:0]
			var wcBytes int64
			for l := 0; l < lanes; l++ {
				la := g.laneIn[bi*ws+l][i]
				if la.Op == isa.Nop {
					continue
				}
				res.BytesRequested += la.Size
				if g.pinned(la.Addr) {
					if kind == cache.Write {
						// Pinned writes go through the write-combining
						// buffer: lanes hitting the same 64B WC line merge
						// into one transaction.
						wcLine := la.Addr / 64
						if !containsInt64(wcBuf, wcLine) {
							wcBuf = append(wcBuf, wcLine)
							wcBytes += la.Size
						}
						continue
					}
					// Pinned reads: no coalescing, one narrow transaction
					// per lane — the uncached read path.
					if g.heat != nil {
						g.heat.Record(la.Addr, la.Size, false, true)
					}
					r := g.pinnedPath.Do(cache.Access{Addr: la.Addr, Size: la.Size, Kind: kind})
					s.memLatency += r.Latency
					res.Transactions++
					res.TransactionBytes += la.Size
					continue
				}
				// Cacheable: collect distinct lines for coalescing.
				first := la.Addr / lineSize
				last := (la.Addr + la.Size - 1) / lineSize
				for ln := first; ln <= last; ln++ {
					if !containsInt64(lineBuf, ln) {
						lineBuf = append(lineBuf, ln)
					}
				}
			}
			for _, wcLine := range wcBuf {
				size := wcBytes / int64(len(wcBuf))
				if size <= 0 {
					size = 4
				}
				if g.heat != nil {
					g.heat.Record(wcLine*64, size, true, true)
				}
				r := g.pinnedPath.Do(cache.Access{Addr: wcLine * 64, Size: size, Kind: cache.Write})
				s.memLatency += r.Latency
				res.Transactions++
				res.TransactionBytes += size
			}
			for _, ln := range lineBuf {
				r := s.l1.Do(cache.Access{Addr: ln * lineSize, Size: lineSize, Kind: kind})
				s.memLatency += r.Latency
				res.Transactions++
				res.TransactionBytes += lineSize
			}
		}
	}
	return nil
}

// checkLane checks the last of a warp's lanes against the lanes before it,
// all of equal length: in every slot where it is active (not masked off
// with a Nop), its opcode must equal the slot's effective opcode — that of
// the first active lane. Checking lanes in order this way compares every
// active lane against the effective opcode.
func checkLane(kernel string, warp int, lanes [][]isa.Instr) error {
	l := len(lanes) - 1
	for i, in := range lanes[l] {
		if in.Op == isa.Nop {
			continue
		}
		for j, lane := range lanes[:l] {
			if op := lane[i].Op; op != isa.Nop {
				if op != in.Op {
					return fmt.Errorf("kernel %s: warp %d instr %d diverges: lane %d %s vs lane %d %s",
						kernel, warp, i, j, op, l, in.Op)
				}
				break
			}
		}
	}
	return nil
}

func bwTime(bytes int64, bw units.BytesPerSecond) units.Latency {
	if bytes <= 0 || bw <= 0 {
		return 0
	}
	return units.Latency(float64(bytes) / float64(bw) * 1e9)
}

func containsInt64(s []int64, v int64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func deltaCache(now, before cache.Stats) cache.Stats {
	return cache.Stats{
		Reads:           now.Reads - before.Reads,
		Writes:          now.Writes - before.Writes,
		ReadHits:        now.ReadHits - before.ReadHits,
		WriteHits:       now.WriteHits - before.WriteHits,
		Evictions:       now.Evictions - before.Evictions,
		Writebacks:      now.Writebacks - before.Writebacks,
		WritebacksIn:    now.WritebacksIn - before.WritebacksIn,
		Flushes:         now.Flushes - before.Flushes,
		FlushWritebacks: now.FlushWritebacks - before.FlushWritebacks,
		Invalidates:     now.Invalidates - before.Invalidates,
		BytesIn:         now.BytesIn - before.BytesIn,
	}
}

func deltaMem(now, before memdev.Stats) memdev.Stats {
	return memdev.Stats{
		Reads:        now.Reads - before.Reads,
		Writes:       now.Writes - before.Writes,
		Writebacks:   now.Writebacks - before.Writebacks,
		BytesRead:    now.BytesRead - before.BytesRead,
		BytesWritten: now.BytesWritten - before.BytesWritten,
	}
}

// String summarizes the launch for logs and CLIs.
func (r Result) String() string {
	return fmt.Sprintf("%v (%s-bound, %d warps, occ %.0f%%, ipc %.2f, %d txns, %s req)",
		r.Time.Duration(), r.Bound, r.Warps, r.Occupancy*100, r.WarpIPC,
		r.Transactions, units.FormatBytes(r.BytesRequested))
}
