package cache

// Metamorphic invariants of the cache model over seeded streams, each tied
// back to the refCache specification: LRU inclusion across associativities,
// and write-back conservation (every dirty residency reaches the lower level
// exactly once).

import (
	"math"
	"testing"
)

// lineAccesses splits a generated stream into single-line accesses, so each
// one is a single hit or miss.
func lineAccesses(accs []Access, lineSize int64) []Access {
	var out []Access
	for _, a := range accs {
		for ln := a.Addr / lineSize; ln <= (a.Addr+a.Size-1)/lineSize; ln++ {
			out = append(out, Access{Addr: ln * lineSize, Size: lineSize, Kind: a.Kind})
		}
	}
	return out
}

// hitTrace services accs one at a time and reports which of them hit.
func hitTrace(c *Cache, accs []Access) []bool {
	hits := make([]bool, len(accs))
	for i, a := range accs {
		before := c.Stats().Hits()
		c.Do(a)
		hits[i] = c.Stats().Hits() > before
	}
	return hits
}

// TestLRUInclusionAcrossWays checks the LRU stack property: at a fixed set
// count, a cache with more ways holds a superset of the lines a smaller one
// holds, so adding ways never turns a hit into a miss. The smaller cache's
// classification is also held to refCache.
func TestLRUInclusionAcrossWays(t *testing.T) {
	var hits, gained int
	for seed := uint64(1); seed <= 300; seed++ {
		rng := xorshift(seed*0x9e3779b97f4a7c15 + 7)
		lineSize := int64(32) << (rng.next() % 2)
		sets := int64(1) << (rng.next() % 6)
		ways := int(rng.next()%8) + 1
		more := ways + int(rng.next()%4) + 1
		accs := lineAccesses(genStream(&rng, 80), lineSize)

		small := New(Config{Name: "small", Size: sets * int64(ways) * lineSize, LineSize: lineSize, Ways: ways, HitLatency: 1}, &countingSink{})
		big := New(Config{Name: "big", Size: sets * int64(more) * lineSize, LineSize: lineSize, Ways: more, HitLatency: 1}, &countingSink{})
		ref := newRefCache(sets*int64(ways)*lineSize, lineSize, ways)
		smallHits, bigHits := hitTrace(small, accs), hitTrace(big, accs)
		for i, a := range accs {
			refHits, _ := ref.do(a)
			if smallHits[i] != (refHits == 1) {
				t.Fatalf("seed %d access %d (%+v): %d-way cache hit=%v, reference hit=%v", seed, i, a, ways, smallHits[i], refHits == 1)
			}
			if smallHits[i] && !bigHits[i] {
				t.Fatalf("seed %d access %d (%+v): hits with %d ways, misses with %d (%d sets)", seed, i, a, ways, more, sets)
			}
			if smallHits[i] {
				hits++
			} else if bigHits[i] {
				gained++
			}
		}
	}
	// Both directions must occur, or the streams test nothing.
	if hits == 0 || gained == 0 {
		t.Fatalf("streams too easy: %d hits in the smaller caches, %d hits gained by extra ways", hits, gained)
	}
}

// addrSink records the writebacks it receives per line address.
type addrSink struct{ writebacks map[int64]int }

func (s *addrSink) Name() string { return "mem" }
func (s *addrSink) Do(a Access) Result {
	if a.Kind == Writeback {
		s.writebacks[a.Addr]++
	}
	return Result{Latency: 1}
}

// TestDirtyResidencyWrittenBackOnce checks write-back conservation: a line
// becomes dirty once per residency (the first write after it is filled), and
// each such dirty residency must reach the lower level exactly once — by a
// dirty eviction during the stream or by the closing full-range FlushRange —
// at its own address. Dirtying is tracked on refCache, independently of the
// cache under test. Every stream is serviced both per access and as one
// DoBatch.
func TestDirtyResidencyWrittenBackOnce(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		rng := xorshift(seed*0xff51afd7ed558ccd + 3)
		cfg := streamGeometries[rng.next()%uint64(len(streamGeometries))]
		accs := genStream(&rng, 60)

		ref := newRefCache(cfg.Size, cfg.LineSize, cfg.Ways)
		dirtied := make(map[int64]int)
		for _, a := range lineAccesses(accs, cfg.LineSize) {
			line := a.Addr / cfg.LineSize
			if a.Kind == Write && !ref.dirty[line] {
				dirtied[a.Addr]++
			}
			ref.do(a)
		}

		for _, batch := range []bool{false, true} {
			sink := &addrSink{writebacks: make(map[int64]int)}
			c := New(cfg, sink)
			if batch {
				c.DoBatch(accs, make([]Result, len(accs)), nil)
			} else {
				for _, a := range accs {
					c.Do(a)
				}
			}
			evicted := c.Stats().Writebacks
			flushed, _ := c.FlushRange(0, math.MaxInt64, 1)
			if c.ResidentLines() != 0 {
				t.Fatalf("seed %d batch=%v: %d lines resident after a full flush", seed, batch, c.ResidentLines())
			}
			var total int64
			for addr, n := range sink.writebacks {
				total += int64(n)
				if n != dirtied[addr] {
					t.Fatalf("seed %d batch=%v: line %#x written back %d times, dirtied %d times", seed, batch, addr, n, dirtied[addr])
				}
			}
			for addr, n := range dirtied {
				if sink.writebacks[addr] != n {
					t.Fatalf("seed %d batch=%v: line %#x dirtied %d times, written back %d times", seed, batch, addr, n, sink.writebacks[addr])
				}
			}
			if total != evicted+flushed {
				t.Fatalf("seed %d batch=%v: lower level saw %d writebacks, cache reports %d evicted + %d flushed", seed, batch, total, evicted, flushed)
			}
		}
	}
}
