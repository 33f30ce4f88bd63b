package cache

// Differential testing of the cache against an executable reference model:
// an obviously-correct map+slice implementation of set-associative LRU. Every
// access of a generated sequence must classify identically (hit/miss) in
// both, every line must sit in the same way, the writebacks must leave in
// the same order, and the final resident sets must match. The cache is the
// substrate's ground truth, so it gets the strongest check in the repository.

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// refCache is the specification: per set, an LRU-ordered list of tags and
// the tag each way holds. A miss fills the first invalid way, else the LRU
// line's way.
type refCache struct {
	lineSize int64
	sets     int64
	ways     int
	lru      map[int64][]int64  // set -> tags, most recent last
	way      map[int64][]refWay // set -> what each way holds
	dirty    map[int64]bool     // line address -> dirty
	// writebacks lists the addresses of dirty lines written back, by
	// eviction or flush, in order.
	writebacks []int64
}

type refWay struct {
	tag   int64
	valid bool
}

func newRefCache(size, lineSize int64, ways int) *refCache {
	return &refCache{
		lineSize: lineSize,
		sets:     size / (lineSize * int64(ways)),
		ways:     ways,
		lru:      make(map[int64][]int64),
		way:      make(map[int64][]refWay),
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
	// Miss: evict LRU if full, and fill the way it frees or the first
	// invalid one.
	if r.way[set] == nil {
		r.way[set] = make([]refWay, r.ways)
	}
	fill := -1
	for w, rw := range r.way[set] {
		if len(tags) == r.ways && rw.valid && rw.tag == tags[0] || len(tags) < r.ways && !rw.valid {
			fill = w
			break
		}
	}
	if len(tags) == r.ways {
		victim := tags[0]
		tags = tags[1:]
		victimLine := victim*r.sets + set
		evictedDirty = r.dirty[victimLine]
		if evictedDirty {
			r.writebacks = append(r.writebacks, victimLine*r.lineSize)
		}
		delete(r.dirty, victimLine)
	}
	r.way[set][fill] = refWay{tag: tag, valid: true}
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

// flushRange writes back and invalidates every line overlapping [lo, hi),
// sets ascending and ways ascending within a set.
func (r *refCache) flushRange(lo, hi int64) {
	for set := int64(0); set < r.sets; set++ {
		for w, rw := range r.way[set] {
			line := rw.tag*r.sets + set
			if !rw.valid || line*r.lineSize+r.lineSize <= lo || line*r.lineSize >= hi {
				continue
			}
			if r.dirty[line] {
				r.writebacks = append(r.writebacks, line*r.lineSize)
			}
			delete(r.dirty, line)
			r.way[set][w] = refWay{}
			r.lru[set] = slices.DeleteFunc(r.lru[set], func(tg int64) bool { return tg == rw.tag })
		}
	}
}

// invalidate drops every line without writing anything back.
func (r *refCache) invalidate() {
	r.lru = make(map[int64][]int64)
	r.way = make(map[int64][]refWay)
	r.dirty = make(map[int64]bool)
}

// sameWays reports the first way whose content differs between c and r,
// including each set's fill count.
func (r *refCache) sameWays(c *Cache) error {
	for set := int64(0); set < r.sets; set++ {
		valid := 0
		for w := 0; w < r.ways; w++ {
			want := int64(invalidTag)
			if rw := r.way[set]; rw != nil && rw[w].valid {
				want = rw[w].tag
				valid++
			}
			if got := c.tags[set*int64(r.ways)+int64(w)]; got != want {
				return fmt.Errorf("set %d way %d: tag %d, reference %d", set, w, got, want)
			}
		}
		if c.fill[set] != valid {
			return fmt.Errorf("set %d: fill %d, reference %d valid ways", set, c.fill[set], valid)
		}
	}
	return nil
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

// writebackAddrs lists the addresses of the writebacks mem received, in
// order.
func writebackAddrs(mem *sink) []int64 {
	var out []int64
	for _, a := range mem.accesses {
		if a.Kind == Writeback {
			out = append(out, a.Addr)
		}
	}
	return out
}

// TestDifferentialAgainstReferenceModel interleaves Do, DoBatch, sub-range
// FlushRange and Invalidate, so sets fill around invalid ways left mid-set.
// After every step each way must hold what the reference's does and each
// set's fill count must match; at the end the writebacks must have left in
// the same order.
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
		mem := &sink{latency: 1}
		real := New(Config{Name: "dut", Size: geo.size, LineSize: geo.line, Ways: geo.ways, HitLatency: 1}, mem)
		ref := newRefCache(geo.size, geo.line, geo.ways)

		// Accesses whose bit 8 is set queue up and go through DoBatch
		// together, before the next Do, flush or invalidate.
		var batch []Access
		var scratch Batch
		refBatchHits := 0
		runBatch := func() bool {
			if len(batch) == 0 {
				return true
			}
			before := real.Stats().Hits()
			real.DoBatch(batch, make([]Result, len(batch)), &scratch)
			if got := int(real.Stats().Hits() - before); got != refBatchHits {
				t.Logf("batch of %d: real %d hits, ref %d", len(batch), got, refBatchHits)
				return false
			}
			batch, refBatchHits = batch[:0], 0
			return true
		}
		for i, op := range ops {
			// Line-aligned single-line accesses keep the comparison 1:1.
			addr := (int64(op) % 256) * geo.line
			write := i < len(writes) && writes[i]
			kind := Read
			if write {
				kind = Write
			}
			switch {
			case op>>13 == 7: // flush 1-4 lines from an unaligned start
				if !runBatch() {
					return false
				}
				lo := addr + int64(op>>8)%geo.line
				hi := lo + (int64(op>>10)%4+1)*geo.line - geo.line/2
				real.FlushRange(lo, hi, 1)
				ref.flushRange(lo, hi)
			case op>>13 == 6 && op>>8&7 == 0:
				if !runBatch() {
					return false
				}
				real.Invalidate()
				ref.invalidate()
			case op>>8&1 == 1:
				batch = append(batch, Access{Addr: addr, Size: 4, Kind: kind})
				if hit, _ := ref.access(addr, write); hit {
					refBatchHits++
				}
				continue
			default:
				if !runBatch() {
					return false
				}
				before := real.Stats().Hits()
				real.Do(Access{Addr: addr, Size: 4, Kind: kind})
				realHit := real.Stats().Hits() > before
				if refHit, _ := ref.access(addr, write); realHit != refHit {
					t.Logf("access %d addr %d write %v: real hit=%v ref hit=%v", i, addr, write, realHit, refHit)
					return false
				}
			}
			if err := ref.sameWays(real); err != nil {
				t.Logf("after op %d (%#x): %v", i, op, err)
				return false
			}
		}
		if !runBatch() {
			return false
		}
		if err := ref.sameWays(real); err != nil {
			t.Logf("after the last batch: %v", err)
			return false
		}
		if got := writebackAddrs(mem); !slices.Equal(got, ref.writebacks) {
			t.Logf("writebacks: real %v ref %v", got, ref.writebacks)
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

// TestFlushedWayRefilledFirst pins the victim rule on one 4-way set: after a
// flush empties way 1 of a full set, the next miss fills way 1 without an
// eviction, the one after evicts the LRU way, and a closing flush writes the
// lines back in way order.
func TestFlushedWayRefilledFirst(t *testing.T) {
	const line = 64
	mem := &sink{latency: 1}
	c := New(Config{Name: "set", Size: 4 * line, LineSize: line, Ways: 4, HitLatency: 1}, mem)
	ref := newRefCache(4*line, line, 4)
	access := func(l int64) {
		c.Do(Access{Addr: l * line, Size: line, Kind: Write})
		ref.access(l*line, true)
	}
	for l := int64(0); l < 4; l++ { // lines 0-3 fill ways 0-3, all dirty
		access(l)
	}
	c.FlushRange(1*line, 2*line, 1) // way 1
	ref.flushRange(1*line, 2*line)
	if c.ResidentLines() != 3 || c.tags[1] != invalidTag {
		t.Fatalf("after the flush: %d lines, way 1 tag %d; want 3 lines, way 1 invalid", c.ResidentLines(), c.tags[1])
	}
	access(4)
	if c.tags[1] != 4 || c.Stats().Evictions != 0 {
		t.Fatalf("first refill: way 1 tag %d, %d evictions; want line 4 in way 1, no eviction", c.tags[1], c.Stats().Evictions)
	}
	access(5) // line 0, in way 0, is least recently used
	if c.tags[0] != 5 || c.Stats().Evictions != 1 {
		t.Fatalf("second refill: way 0 tag %d, %d evictions; want line 5 in way 0, 1 eviction", c.tags[0], c.Stats().Evictions)
	}
	c.FlushRange(0, 8*line, 1)
	ref.flushRange(0, 8*line)
	want := []int64{1 * line, 0 * line, 5 * line, 4 * line, 2 * line, 3 * line}
	if got := writebackAddrs(mem); !slices.Equal(got, want) || !slices.Equal(ref.writebacks, want) {
		t.Fatalf("writebacks %v, reference %v; want %v", got, ref.writebacks, want)
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
