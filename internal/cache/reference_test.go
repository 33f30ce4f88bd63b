package cache

// Differential testing of the cache against an executable reference model:
// an obviously-correct map+slice implementation of set-associative LRU. Every
// access of a generated sequence must classify identically (hit/miss) in
// both, and the final resident sets must match. The cache is the substrate's
// ground truth, so it gets the strongest check in the repository.

import (
	"testing"
	"testing/quick"
)

// refCache is the specification: per set, an LRU-ordered list of tags.
type refCache struct {
	lineSize int64
	sets     int64
	ways     int
	lru      map[int64][]int64 // set -> tags, most recent last
	dirty    map[int64]bool    // line address -> dirty
}

func newRefCache(size, lineSize int64, ways int) *refCache {
	return &refCache{
		lineSize: lineSize,
		sets:     size / (lineSize * int64(ways)),
		ways:     ways,
		lru:      make(map[int64][]int64),
		dirty:    make(map[int64]bool),
	}
}

// access classifies one line-sized access and updates the model; it returns
// whether it hit and, if an eviction happened, whether the victim was dirty.
func (r *refCache) access(addr int64, write bool) (hit bool, evictedDirty bool) {
	line := addr / r.lineSize
	set := line % r.sets
	tag := line / r.sets
	tags := r.lru[set]
	for i, tg := range tags {
		if tg == tag {
			// Move to MRU.
			tags = append(append(append([]int64{}, tags[:i]...), tags[i+1:]...), tag)
			r.lru[set] = tags
			if write {
				r.dirty[line] = true
			}
			return true, false
		}
	}
	// Miss: evict LRU if full.
	if len(tags) == r.ways {
		victim := tags[0]
		tags = tags[1:]
		victimLine := victim*r.sets + set
		evictedDirty = r.dirty[victimLine]
		delete(r.dirty, victimLine)
	}
	tags = append(tags, tag)
	r.lru[set] = tags
	if write {
		r.dirty[line] = true
	} else {
		delete(r.dirty, line)
	}
	return false, evictedDirty
}

// do splits a into its lines and classifies each in order, returning the
// line hits and the dirty evictions it caused.
func (r *refCache) do(a Access) (hits, dirtyEvictions int) {
	if a.Size <= 0 {
		return 0, 0
	}
	for ln := a.Addr / r.lineSize; ln <= (a.Addr+a.Size-1)/r.lineSize; ln++ {
		hit, evictedDirty := r.access(ln*r.lineSize, a.Kind == Write)
		if hit {
			hits++
		}
		if evictedDirty {
			dirtyEvictions++
		}
	}
	return hits, dirtyEvictions
}

func (r *refCache) resident() map[int64]bool {
	out := make(map[int64]bool)
	for set, tags := range r.lru {
		for _, tag := range tags {
			out[tag*r.sets+set] = true
		}
	}
	return out
}

// countingSink tallies writebacks so the dirty-eviction behaviour can be
// compared too.
type countingSink struct{ writebacks int }

func (s *countingSink) Name() string { return "sink" }
func (s *countingSink) Do(a Access) Result {
	if a.Kind == Writeback {
		s.writebacks++
	}
	return Result{Latency: 1}
}

func TestDifferentialAgainstReferenceModel(t *testing.T) {
	type geometry struct {
		size, line int64
		ways       int
	}
	geoms := []geometry{
		{1024, 64, 1},  // direct mapped
		{1024, 64, 4},  // typical
		{512, 32, 8},   // fully associative (2 sets... 512/32/8 = 2 sets)
		{2048, 128, 2}, // wide lines
	}
	f := func(ops []uint16, writes []bool, geoSel uint8) bool {
		geo := geoms[int(geoSel)%len(geoms)]
		sink := &countingSink{}
		real := New(Config{Name: "dut", Size: geo.size, LineSize: geo.line, Ways: geo.ways, HitLatency: 1}, sink)
		ref := newRefCache(geo.size, geo.line, geo.ways)
		refWritebacks := 0

		for i, op := range ops {
			// Line-aligned single-line accesses keep the comparison 1:1.
			addr := (int64(op) % 256) * geo.line
			write := i < len(writes) && writes[i]
			kind := Read
			if write {
				kind = Write
			}
			before := real.Stats().Hits()
			real.Do(Access{Addr: addr, Size: 4, Kind: kind})
			realHit := real.Stats().Hits() > before

			refHit, evictedDirty := ref.access(addr, write)
			if evictedDirty {
				refWritebacks++
			}
			if realHit != refHit {
				t.Logf("access %d addr %d write %v: real hit=%v ref hit=%v", i, addr, write, realHit, refHit)
				return false
			}
		}
		// Writeback counts agree (no flush happened, so sink counts demand
		// evictions only).
		if sink.writebacks != refWritebacks {
			t.Logf("writebacks: real %d ref %d", sink.writebacks, refWritebacks)
			return false
		}
		// Final resident sets agree.
		for line := range ref.resident() {
			if !real.Contains(line * geo.line) {
				t.Logf("line %d resident in ref but not in cache", line)
				return false
			}
		}
		if real.ResidentLines() != int64(len(ref.resident())) {
			t.Logf("resident count: real %d ref %d", real.ResidentLines(), len(ref.resident()))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialLongSequence pushes one long deterministic mixed sequence
// through both models (quick.Check sequences are short; this exercises deep
// LRU churn).
func TestDifferentialLongSequence(t *testing.T) {
	sink := &countingSink{}
	real := New(Config{Name: "dut", Size: 4096, LineSize: 64, Ways: 4, HitLatency: 1}, sink)
	ref := newRefCache(4096, 64, 4)
	refWritebacks := 0

	state := uint64(0x12345678)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 20000; i++ {
		addr := int64(next()%512) * 64
		write := next()%3 == 0
		kind := Read
		if write {
			kind = Write
		}
		before := real.Stats().Hits()
		real.Do(Access{Addr: addr, Size: 4, Kind: kind})
		realHit := real.Stats().Hits() > before
		refHit, evictedDirty := ref.access(addr, write)
		if evictedDirty {
			refWritebacks++
		}
		if realHit != refHit {
			t.Fatalf("access %d: real hit=%v ref hit=%v", i, realHit, refHit)
		}
	}
	if sink.writebacks != refWritebacks {
		t.Fatalf("writebacks: real %d ref %d", sink.writebacks, refWritebacks)
	}
	if hr := real.Stats().HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("suspicious hit rate %v for a mixed sequence", hr)
	}
}
