package cache

import "igpucomm/internal/units"

// This file is the batch entry point to the cache model: DoBatch services an
// ordered group of accesses level by level instead of recursing per access.
// The simulate hot path (internal/gpu's compiled replay) calls it with whole
// transaction groups, which removes the per-access interface dispatch and
// makes the path allocation-free (the Batch scratch is caller-owned and
// reused).
//
// Equivalence to the serial path (for i, a := range accs { out[i] = c.Do(a) })
// is exact, not approximate — in results, counters, cache state and heat
// records:
//
//   - A level's state transitions (LRU order, dirty bits, victim choice,
//     stats) depend only on the sequence of accesses presented to that
//     level, never on what lower levels return. Processing every access's
//     lines at this level first therefore leaves the level in the same
//     state the serial interleaving would.
//   - The lower level sees the same requests in the same order the serial
//     recursion would issue them: per access, per line, the dirty-victim
//     writeback followed by the demand fill.
//   - Latencies combine in the serial float-addition order: per access, per
//     line, out.Latency += HitLatency + lowerLatency — the exact expression
//     and sequence Do uses — so results match bit for bit even for the
//     fractional latencies some device catalogs use. A Result is only its
//     latency, so nothing else is left to combine. Callers that sum the
//     results (internal/gpu's replay) keep that order too: they may hold
//     the running sum in a local, never reorder or multiply it.
//
// The property and fuzz suites in this package and internal/gpu hold DoBatch
// to that contract against the serial path and the naive reference model.
//
// DoBatch serves the GPU's cacheable path, entered at a per-SM L1. The
// pinned path never enters a cache through it: on I/O-coherent devices it
// reaches the CPU LLC through the coherence port, one Do per run head plus
// RepeatHit for the rest of the run (internal/coherence).

// Batch is reusable scratch for DoBatch. The zero value is ready to use; a
// Batch may be reused across calls and levels but not concurrently.
type Batch struct {
	lower    []Access
	lowerOut []Result
	lines    []lineRef
	child    *Batch
}

// lineRef records how one cache line of one access resolves: which access it
// belongs to and which lower-level result (if any) contributes its latency.
type lineRef struct {
	acc      int32
	lowerIdx int32 // -1: hit or writeback-allocate (no lower latency)
}

func (b *Batch) childScratch() *Batch {
	if b.child == nil {
		b.child = &Batch{}
	}
	return b.child
}

// DoBatch services accs in order, writing one Result per access into out
// (len(out) must be >= len(accs)). It is byte-identical to calling Do per
// access in order. b is caller-owned scratch; nil allocates a temporary.
func (c *Cache) DoBatch(accs []Access, out []Result, b *Batch) {
	if b == nil {
		b = &Batch{}
	}
	b.lower = b.lower[:0]
	b.lines = b.lines[:0]

	for i := range accs {
		a := accs[i]
		out[i] = Result{}
		if a.Size <= 0 {
			continue
		}
		first := a.Addr >> c.offBits
		last := (a.Addr + a.Size - 1) >> c.offBits
		for ln := first; ln <= last; ln++ {
			// step records heat at the same points, in the same order, as
			// the serial doLine — the byte-identity contract extends to heat.
			hit, wbAddr, wb := c.step(ln, a.Kind)
			lowerIdx := int32(-1)
			if !hit {
				if wb {
					// Writeback latency is off the critical path —
					// enqueued for state and traffic, no lineRef.
					b.lower = append(b.lower, Access{Addr: wbAddr, Size: c.cfg.LineSize, Kind: Writeback})
				}
				if a.Kind != Writeback {
					lowerIdx = int32(len(b.lower))
					b.lower = append(b.lower, Access{Addr: ln << c.offBits, Size: c.cfg.LineSize, Kind: a.Kind})
				}
			}
			b.lines = append(b.lines, lineRef{acc: int32(i), lowerIdx: lowerIdx})
		}
	}

	// Service the lower level with the queued requests — the same sequence
	// the serial recursion would issue, in the same order.
	if cap(b.lowerOut) < len(b.lower) {
		b.lowerOut = make([]Result, len(b.lower))
	}
	lowerOut := b.lowerOut[:len(b.lower)]
	if len(b.lower) > 0 {
		if lc, ok := c.lower.(*Cache); ok {
			lc.DoBatch(b.lower, lowerOut, b.childScratch())
		} else {
			for j := range b.lower {
				lowerOut[j] = c.lower.Do(b.lower[j])
			}
		}
	}

	// Combine: replay the per-line resolution in serial order.
	for _, lr := range b.lines {
		var lowerLat units.Latency
		if lr.lowerIdx >= 0 {
			lowerLat = lowerOut[lr.lowerIdx].Latency
		}
		out[lr.acc].Latency += c.cfg.HitLatency + lowerLat
	}
}
