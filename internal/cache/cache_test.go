package cache

import (
	"math"
	"testing"
	"testing/quick"

	"igpucomm/internal/units"
)

// sink is a terminal level with fixed latency that records traffic.
type sink struct {
	latency  units.Latency
	accesses []Access
}

func (s *sink) Name() string { return "mem" }
func (s *sink) Do(a Access) Result {
	s.accesses = append(s.accesses, a)
	if a.Kind == Writeback {
		return Result{}
	}
	return Result{Latency: s.latency}
}

func newTestCache(t *testing.T, size, lineSize int64, ways int) (*Cache, *sink) {
	t.Helper()
	mem := &sink{latency: 100}
	c := New(Config{Name: "L1", Size: size, LineSize: lineSize, Ways: ways, HitLatency: 4}, mem)
	return c, mem
}

func TestConfigValidate(t *testing.T) {
	valid := Config{Name: "c", Size: 1024, LineSize: 64, Ways: 4, HitLatency: 1}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero-size", Size: 0, LineSize: 64, Ways: 4},
		{Name: "neg-size", Size: -64, LineSize: 64, Ways: 1},
		{Name: "npot-line", Size: 1024, LineSize: 48, Ways: 4},
		{Name: "zero-line", Size: 1024, LineSize: 0, Ways: 4},
		{Name: "zero-ways", Size: 1024, LineSize: 64, Ways: 0},
		{Name: "indivisible", Size: 1000, LineSize: 64, Ways: 4},
		{Name: "npot-sets", Size: 3 * 64 * 4, LineSize: 64, Ways: 4},
		// One set of 1-byte lines: a tag is the whole address, so no tag
		// is free to mark an invalid way.
		{Name: "tagless", Size: 4, LineSize: 1, Ways: 4},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %s accepted, want error", cfg.Name)
		}
	}
}

// TestExtremeTagsStayValid fills the smallest geometry Validate accepts,
// where a tag is the address shifted by one bit, with the lowest and the
// highest line addresses: neither tag may read as an invalid way.
func TestExtremeTagsStayValid(t *testing.T) {
	c := New(Config{Name: "tiny", Size: 4, LineSize: 2, Ways: 2, HitLatency: 1}, &sink{})
	addrs := []int64{math.MinInt64, math.MaxInt64 - 1}
	for _, addr := range addrs {
		c.Do(Access{Addr: addr, Size: 1, Kind: Read})
	}
	for _, addr := range addrs {
		c.Do(Access{Addr: addr, Size: 1, Kind: Read})
		if !c.Contains(addr) {
			t.Errorf("line at %#x not resident", addr)
		}
	}
	if s := c.Stats(); s.Hits() != 2 || c.ResidentLines() != 2 {
		t.Fatalf("%d hits, %d resident lines; want 2 and 2", s.Hits(), c.ResidentLines())
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{Name: "bad", Size: 0, LineSize: 64, Ways: 1}, &sink{})
}

func TestNewPanicsOnNilLower(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with nil lower did not panic")
		}
	}()
	New(Config{Name: "c", Size: 1024, LineSize: 64, Ways: 4, HitLatency: 1}, nil)
}

func TestColdMissThenHit(t *testing.T) {
	c, mem := newTestCache(t, 1024, 64, 4)
	r1 := c.Do(Access{Addr: 0, Size: 4, Kind: Read})
	if r1.Latency != 104 {
		t.Errorf("cold miss latency = %v, want 104 (4 tag + 100 mem)", r1.Latency)
	}
	r2 := c.Do(Access{Addr: 32, Size: 4, Kind: Read}) // same line
	if r2.Latency != 4 {
		t.Errorf("hit latency = %v, want 4", r2.Latency)
	}
	if len(mem.accesses) != 1 {
		t.Errorf("memory accesses = %d, want 1", len(mem.accesses))
	}
	st := c.Stats()
	if st.Reads != 2 || st.ReadHits != 1 {
		t.Errorf("stats = %+v, want 2 reads 1 hit", st)
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	// Direct-mapped, 2 sets, line 64: addrs 0 and 128 conflict in set 0.
	c, mem := newTestCache(t, 128, 64, 1)
	c.Do(Access{Addr: 0, Size: 4, Kind: Write})  // allocate dirty
	c.Do(Access{Addr: 128, Size: 4, Kind: Read}) // evicts dirty line 0
	st := c.Stats()
	if st.Evictions != 1 || st.Writebacks != 1 {
		t.Fatalf("evictions=%d writebacks=%d, want 1,1", st.Evictions, st.Writebacks)
	}
	var sawWB bool
	for _, a := range mem.accesses {
		if a.Kind == Writeback {
			sawWB = true
			if a.Addr != 0 || a.Size != 64 {
				t.Errorf("writeback addr/size = %d/%d, want 0/64", a.Addr, a.Size)
			}
		}
	}
	if !sawWB {
		t.Error("no writeback reached memory")
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c, mem := newTestCache(t, 128, 64, 1)
	c.Do(Access{Addr: 0, Size: 4, Kind: Read})
	c.Do(Access{Addr: 128, Size: 4, Kind: Read})
	for _, a := range mem.accesses {
		if a.Kind == Writeback {
			t.Fatal("clean eviction produced a writeback")
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Writebacks != 0 {
		t.Errorf("evictions=%d writebacks=%d, want 1,0", st.Evictions, st.Writebacks)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 1 set: size = 2 lines.
	c, _ := newTestCache(t, 128, 64, 2)
	c.Do(Access{Addr: 0, Size: 4, Kind: Read})   // A
	c.Do(Access{Addr: 128, Size: 4, Kind: Read}) // B
	c.Do(Access{Addr: 0, Size: 4, Kind: Read})   // touch A; B is LRU
	c.Do(Access{Addr: 256, Size: 4, Kind: Read}) // C evicts B
	if !c.Contains(0) {
		t.Error("MRU line A evicted")
	}
	if c.Contains(128) {
		t.Error("LRU line B survived")
	}
	if !c.Contains(256) {
		t.Error("new line C absent")
	}
}

func TestMultiLineAccessSplits(t *testing.T) {
	c, mem := newTestCache(t, 1024, 64, 4)
	c.Do(Access{Addr: 0, Size: 256, Kind: Read}) // 4 lines
	if got := len(mem.accesses); got != 4 {
		t.Errorf("memory fills = %d, want 4", got)
	}
	if got := c.Stats().Reads; got != 4 {
		t.Errorf("line reads = %d, want 4", got)
	}
}

func TestUnalignedAccessTouchesBothLines(t *testing.T) {
	c, mem := newTestCache(t, 1024, 64, 4)
	c.Do(Access{Addr: 60, Size: 8, Kind: Read}) // straddles lines 0 and 1
	if got := len(mem.accesses); got != 2 {
		t.Errorf("memory fills = %d, want 2", got)
	}
}

func TestZeroAndNegativeSize(t *testing.T) {
	c, mem := newTestCache(t, 1024, 64, 4)
	if r := c.Do(Access{Addr: 0, Size: 0, Kind: Read}); r.Latency != 0 {
		t.Errorf("zero-size access latency = %v, want 0", r.Latency)
	}
	if r := c.Do(Access{Addr: 0, Size: -8, Kind: Read}); r.Latency != 0 {
		t.Errorf("negative-size access latency = %v, want 0", r.Latency)
	}
	if len(mem.accesses) != 0 {
		t.Error("degenerate accesses reached memory")
	}
}

// A flush over the whole address space writes back every dirty line and
// empties the cache.
func TestFlushWritesBackDirtyAndEmpties(t *testing.T) {
	c, mem := newTestCache(t, 1024, 64, 4)
	c.Do(Access{Addr: 0, Size: 4, Kind: Write})
	c.Do(Access{Addr: 64, Size: 4, Kind: Read})
	c.Do(Access{Addr: 128, Size: 4, Kind: Write})
	wbs, cost := c.FlushRange(0, math.MaxInt64, 2)
	if wbs != 2 {
		t.Errorf("flush writebacks = %d, want 2", wbs)
	}
	if cost != 6 { // 3 valid lines * 2 cycles
		t.Errorf("flush cost = %v, want 6", cost)
	}
	if c.ResidentLines() != 0 {
		t.Errorf("resident after flush = %d, want 0", c.ResidentLines())
	}
	var wbCount int
	for _, a := range mem.accesses {
		if a.Kind == Writeback {
			wbCount++
		}
	}
	if wbCount != 2 {
		t.Errorf("writebacks at memory = %d, want 2", wbCount)
	}
}

func TestInvalidateDropsWithoutWriteback(t *testing.T) {
	c, mem := newTestCache(t, 1024, 64, 4)
	c.Do(Access{Addr: 0, Size: 4, Kind: Write})
	before := len(mem.accesses)
	c.Invalidate()
	if c.ResidentLines() != 0 {
		t.Error("lines survived invalidate")
	}
	if len(mem.accesses) != before {
		t.Error("invalidate generated memory traffic")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c, _ := newTestCache(t, 1024, 64, 4) // 16 lines
	for i := int64(0); i < 100; i++ {
		c.Do(Access{Addr: i * 64, Size: 4, Kind: Read})
	}
	if got := c.ResidentLines(); got != 16 {
		t.Errorf("resident = %d, want full capacity 16", got)
	}
}

func TestWorkingSetFitsHitRate(t *testing.T) {
	c, _ := newTestCache(t, 32*1024, 64, 8)
	// 16KiB working set streamed 10 times: only the first pass misses.
	const ws = 16 * 1024
	for pass := 0; pass < 10; pass++ {
		for a := int64(0); a < ws; a += 64 {
			c.Do(Access{Addr: a, Size: 4, Kind: Read})
		}
	}
	st := c.Stats()
	wantHitRate := 0.9
	if hr := st.HitRate(); hr < wantHitRate-1e-9 {
		t.Errorf("hit rate = %.3f, want >= %.3f (misses=%d)", hr, wantHitRate, st.Misses())
	}
}

func TestThrashingWorkingSetMisses(t *testing.T) {
	c, _ := newTestCache(t, 1024, 64, 4) // 1KiB cache
	// 64KiB streaming working set: every access after the first pass still misses.
	const ws = 64 * 1024
	for pass := 0; pass < 3; pass++ {
		for a := int64(0); a < ws; a += 64 {
			c.Do(Access{Addr: a, Size: 4, Kind: Read})
		}
	}
	if hr := c.Stats().HitRate(); hr > 0.01 {
		t.Errorf("hit rate on thrashing stream = %.3f, want ~0", hr)
	}
}

func TestStatsAddAndRates(t *testing.T) {
	a := Stats{Reads: 10, ReadHits: 5, Writes: 10, WriteHits: 10}
	b := Stats{Reads: 10, ReadHits: 0}
	a.Add(b)
	if a.Accesses() != 30 || a.Hits() != 15 || a.Misses() != 15 {
		t.Errorf("accesses/hits/misses = %d/%d/%d, want 30/15/15", a.Accesses(), a.Hits(), a.Misses())
	}
	if a.HitRate() != 0.5 || a.MissRate() != 0.5 {
		t.Errorf("hit/miss rate = %v/%v, want 0.5/0.5", a.HitRate(), a.MissRate())
	}
	var idle Stats
	if idle.HitRate() != 0 || idle.MissRate() != 0 {
		t.Error("idle cache rates should be 0")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c, _ := newTestCache(t, 1024, 64, 4)
	c.Do(Access{Addr: 0, Size: 4, Kind: Read})
	c.ResetStats()
	if c.Stats().Accesses() != 0 {
		t.Error("stats survived reset")
	}
	if r := c.Do(Access{Addr: 0, Size: 4, Kind: Read}); r.Latency != 4 {
		t.Error("contents lost across ResetStats")
	}
}

// Property: for any access sequence, hits+misses == accesses and the cache
// never reports more resident lines than capacity.
func TestPropertyCountersConsistent(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c, _ := newTestCache(t, 2048, 64, 4)
		for i, a := range addrs {
			kind := Read
			if i < len(writes) && writes[i] {
				kind = Write
			}
			c.Do(Access{Addr: int64(a), Size: 4, Kind: kind})
		}
		st := c.Stats()
		capacityLines := int64(2048 / 64)
		return st.Hits()+st.Misses() == st.Accesses() &&
			c.ResidentLines() <= capacityLines &&
			st.Writebacks <= st.Evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: immediately re-reading any address after touching it must hit.
func TestPropertyTemporalLocalityHits(t *testing.T) {
	f := func(addrs []uint32) bool {
		c, _ := newTestCache(t, 4096, 64, 8)
		for _, a := range addrs {
			acc := Access{Addr: int64(a % (1 << 20)), Size: 4, Kind: Read}
			c.Do(acc)
			misses := c.Stats().Misses()
			c.Do(acc)
			if c.Stats().Misses() != misses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTwoLevelHierarchy(t *testing.T) {
	mem := &sink{latency: 200}
	l2 := New(Config{Name: "L2", Size: 4096, LineSize: 64, Ways: 8, HitLatency: 20}, mem)
	l1 := New(Config{Name: "L1", Size: 512, LineSize: 64, Ways: 2, HitLatency: 4}, l2)

	r := l1.Do(Access{Addr: 0, Size: 4, Kind: Read})
	if r.Latency != 224 { // 4 + 20 + 200
		t.Errorf("cold latency = %v, want 224", r.Latency)
	}

	// Evict from L1 (2-way, 4 sets: addrs 0, 512, 1024 map to set 0).
	l1.Do(Access{Addr: 512, Size: 4, Kind: Read})
	l1.Do(Access{Addr: 1024, Size: 4, Kind: Read})
	// Addr 0 now out of L1 but still in L2.
	r = l1.Do(Access{Addr: 0, Size: 4, Kind: Read})
	if r.Latency != 24 { // 4 + 20
		t.Errorf("L2 hit latency = %v, want 24", r.Latency)
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || Writeback.String() != "writeback" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind string = %q", Kind(9).String())
	}
}

func TestFlushRangeSelective(t *testing.T) {
	c, mem := newTestCache(t, 1024, 64, 4)
	c.Do(Access{Addr: 0, Size: 4, Kind: Write})    // in range, dirty
	c.Do(Access{Addr: 128, Size: 4, Kind: Read})   // in range, clean
	c.Do(Access{Addr: 4096, Size: 4, Kind: Write}) // outside range, dirty
	before := len(mem.accesses)
	wbs, cost := c.FlushRange(0, 256, 2)
	if wbs != 1 {
		t.Errorf("range flush writebacks = %d, want 1", wbs)
	}
	if cost != 4 { // two in-range lines walked at 2 each
		t.Errorf("range flush cost = %v, want 4", cost)
	}
	if c.Contains(0) || c.Contains(128) {
		t.Error("in-range lines survived the flush")
	}
	if !c.Contains(4096) {
		t.Error("out-of-range line was flushed")
	}
	var wbCount int
	for _, a := range mem.accesses[before:] {
		if a.Kind == Writeback {
			wbCount++
			if a.Addr != 0 {
				t.Errorf("writeback addr = %d, want 0", a.Addr)
			}
		}
	}
	if wbCount != 1 {
		t.Errorf("memory saw %d writebacks, want 1", wbCount)
	}
}

func TestFlushRangeBoundaries(t *testing.T) {
	c, _ := newTestCache(t, 1024, 64, 4)
	c.Do(Access{Addr: 64, Size: 4, Kind: Read})
	// A range that ends exactly at the line start must not touch it...
	c.FlushRange(0, 64, 1)
	if !c.Contains(64) {
		t.Error("line at range end was flushed")
	}
	// ...a range that overlaps a single byte of the line must flush it.
	c.FlushRange(127, 128, 1)
	if c.Contains(64) {
		t.Error("partially overlapped line survived")
	}
	// Degenerate range is a no-op.
	if wbs, cost := c.FlushRange(100, 100, 1); wbs != 0 || cost != 0 {
		t.Error("empty range did work")
	}
}

// Property: FlushRange over the whole address space is a full flush of the
// refCache specification: it writes back exactly the dirty lines the
// reference holds and leaves nothing resident.
func TestPropertyFlushRangeTotalEqualsFlush(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c, mem := newTestCache(t, 2048, 64, 4)
		ref := newRefCache(2048, 64, 4)
		for i, addr := range addrs {
			kind := Read
			if i < len(writes) && writes[i] {
				kind = Write
			}
			a := Access{Addr: int64(addr), Size: 4, Kind: kind}
			c.Do(a)
			ref.do(a)
		}
		before := len(mem.accesses)
		wbs, _ := c.FlushRange(0, 1<<20, 1)
		return wbs == int64(len(ref.dirty)) &&
			int64(len(mem.accesses)-before) == wbs &&
			c.ResidentLines() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCacheHit(b *testing.B) {
	mem := &sink{latency: 100}
	c := New(Config{Name: "L1", Size: 32 * 1024, LineSize: 64, Ways: 4, HitLatency: 2}, mem)
	c.Do(Access{Addr: 0, Size: 4, Kind: Read})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Do(Access{Addr: 0, Size: 4, Kind: Read})
	}
}

func BenchmarkCacheStreamingMiss(b *testing.B) {
	mem := &sink{latency: 100}
	c := New(Config{Name: "L1", Size: 32 * 1024, LineSize: 64, Ways: 4, HitLatency: 2}, mem)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Do(Access{Addr: int64(i) * 64, Size: 4, Kind: Read})
		if len(mem.accesses) > 1<<16 {
			mem.accesses = mem.accesses[:0] // keep the sink bounded
		}
	}
}
