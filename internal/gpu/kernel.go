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
// emit the same instructions. A Launcher compiles the emitted trace once and
// replays it, possibly across runs, so a non-deterministic emitter would
// silently desynchronize from what a per-access execution would have done.
//
// Stride optionally declares the kernel affine: thread tid's program is
// thread 0's with every memory address plus tid*Stride — the same opcodes,
// sizes and run structure, no lane masked off. Zero means undeclared. The
// compile pass then emits and coalesces warp 0 only and derives every other
// full warp by a uniform address shift, stored as a reference to warp 0's
// template and applied as the stream is walked (see compile.go). The
// declaration is a promise the compiler does not re-check: declare it only
// where it holds for every thread, and prove it with the
// declared-vs-undeclared differential tests.
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

// statSnap captures the traffic counters a launch reports deltas against.
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
// The replay, like the tests' per-access reference executor, leaves the
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

func (g *GPU) ensureLaneBuffers(resident int) {
	need := resident * g.cfg.WarpSize
	if len(g.laneProgs) < need {
		g.laneProgs = make([]isa.Program, need)
	}
	if len(g.laneIn) < need {
		g.laneIn = make([][]isa.Instr, need)
	}
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
