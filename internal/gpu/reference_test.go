package gpu

// The per-access reference executor: the oracle the differential tests hold
// the compiled path to. It deals warps round-robin over SMs, executes
// each SM's warps in resident batches interleaved slot by slot, coalesces
// each memory warp-instruction and pushes every transaction through the
// caches one Do at a time. Production launches compile and replay instead
// (see compile.go); only tests reach this file, directly or through
// UseReference (export_test.go).

import (
	"fmt"
	"slices"

	"igpucomm/internal/cache"
	"igpucomm/internal/isa"
)

// launchReference executes the kernel with the original per-access
// executor: emit every lane, walk every slot, push each coalesced
// transaction through the interface-dispatched cache path. It is the ground
// truth the compiled path is differentially tested against. Unlike the
// compiled path, it may execute earlier resident batches before it finds an
// emission error.
func (g *GPU) launchReference(k Kernel) (Result, error) {
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

type batch struct {
	warps []int // global warp indices resident together on one SM
	lanes []int // lane count per warp, parallel to warps
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
						if !slices.Contains(wcBuf, wcLine) {
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
					if !slices.Contains(lineBuf, ln) {
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
