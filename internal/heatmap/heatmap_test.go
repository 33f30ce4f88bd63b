package heatmap

import (
	"reflect"
	"strings"
	"testing"

	"igpucomm/internal/mmu"
)

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero extent":        func() { New(0, 64) },
		"negative extent":    func() { New(-1, 64) },
		"zero page":          func() { New(1<<20, 0) },
		"non-power-two page": func() { New(1<<20, 100) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		})
	}
}

func TestGeometry(t *testing.T) {
	a := New(1<<20, 4096)
	if a.PageSize() != 4096 {
		t.Errorf("PageSize = %d, want 4096", a.PageSize())
	}
	if a.Pages() != 256 {
		t.Errorf("Pages = %d, want 256", a.Pages())
	}
	// A non-multiple extent rounds the bucket count up.
	if got := New(4096+1, 4096).Pages(); got != 2 {
		t.Errorf("Pages(4097/4096) = %d, want 2", got)
	}
}

func TestRecordCounters(t *testing.T) {
	a := New(1<<20, 4096)
	a.Record(0, 64, false, false)   // read hit, page 0
	a.Record(64, 64, false, true)   // read miss, page 0
	a.Record(4096, 64, true, false) // write hit, page 1
	a.RecordWriteback(4096, 64)     // writeback, page 1

	tot := a.Totals()
	if tot.Reads != 2 || tot.Writes != 1 || tot.Misses != 1 || tot.Writebacks != 1 {
		t.Errorf("totals = %+v, want 2 reads, 1 write, 1 miss, 1 writeback", tot)
	}
	if tot.AccessedBytes != 3*64 {
		t.Errorf("AccessedBytes = %d, want %d", tot.AccessedBytes, 3*64)
	}
	// Moved = miss fill + writeback.
	if tot.MovedBytes != 2*64 {
		t.Errorf("MovedBytes = %d, want %d", tot.MovedBytes, 2*64)
	}
	if want := 1 - float64(1)/float64(3); tot.HitRate != want {
		t.Errorf("HitRate = %v, want %v", tot.HitRate, want)
	}
	if a.Clock() != 3 {
		t.Errorf("Clock = %d, want 3 (writebacks do not advance it)", a.Clock())
	}
}

func TestRecordOutOfRangeIgnored(t *testing.T) {
	a := New(1<<20, 4096)
	a.Record(1<<20, 64, false, true) // one past the extent
	a.Record(-1, 64, false, true)    // negative wraps to a huge page index
	a.RecordWriteback(1<<21, 64)
	if tot := a.Totals(); tot.Touches() != 0 || tot.Writebacks != 0 {
		t.Errorf("out-of-range records counted: %+v", tot)
	}
}

func TestReuseClock(t *testing.T) {
	a := New(1<<20, 4096)
	a.Record(0, 64, false, false) // clock 1, first touch
	a.Record(0, 64, false, false) // clock 2, reuse delta 1
	a.Record(0, 64, false, false) // clock 3, reuse delta 1
	tot := a.Totals()
	if tot.MeanReuse != 1 {
		t.Errorf("MeanReuse = %v, want 1", tot.MeanReuse)
	}

	a.Reset()
	a.Record(0, 64, false, false)    // clock 1
	a.Record(4096, 64, false, false) // clock 2, other page
	a.Record(0, 64, false, false)    // clock 3, reuse delta 2
	if tot := a.Totals(); tot.MeanReuse != 2 {
		t.Errorf("MeanReuse after interleave = %v, want 2", tot.MeanReuse)
	}
}

func TestResetClears(t *testing.T) {
	a := New(1<<20, 4096)
	a.Record(0, 64, true, true)
	a.RecordWriteback(0, 64)
	a.Reset()
	if tot := a.Totals(); tot.Touches() != 0 || tot.Writebacks != 0 || tot.MovedBytes != 0 {
		t.Errorf("Reset left counters: %+v", tot)
	}
	if a.Clock() != 0 {
		t.Errorf("Reset left clock %d", a.Clock())
	}
}

func TestSnapshotAttribution(t *testing.T) {
	a := New(1<<20, 4096)
	bufs := []mmu.Buffer{
		{Name: "hot", Addr: 0, Size: 4096, Kind: mmu.Pinned},
		{Name: "cold", Addr: 8192, Size: 8192, Kind: mmu.HostAlloc},
	}
	// 4x reuse over the hot buffer, one pass over half of the cold one.
	for i := 0; i < 4; i++ {
		for off := int64(0); off < 4096; off += 64 {
			a.Record(off, 64, false, i == 0 && off%4096 == 0)
		}
	}
	for off := int64(8192); off < 8192+4096; off += 64 {
		a.Record(off, 64, true, true)
	}

	heats := a.Snapshot(bufs)
	if len(heats) != 2 {
		t.Fatalf("snapshot has %d buffers, want 2", len(heats))
	}
	if heats[0].Name != "hot" || heats[1].Name != "cold" {
		t.Fatalf("order = %s, %s; want hot first", heats[0].Name, heats[1].Name)
	}
	hot, cold := heats[0], heats[1]
	if hot.HeatScore != 4 {
		t.Errorf("hot HeatScore = %v, want 4", hot.HeatScore)
	}
	if hot.Kind != "pinned" || cold.Kind != "host" {
		t.Errorf("kinds = %s, %s", hot.Kind, cold.Kind)
	}
	if cold.Pages != 2 || cold.TouchedPages != 1 || cold.TouchDensity != 0.5 {
		t.Errorf("cold density = %d/%d (%v), want 1/2 (0.5)",
			cold.TouchedPages, cold.Pages, cold.TouchDensity)
	}
	if cold.HitRate != 0 {
		t.Errorf("cold HitRate = %v, want 0 (all misses)", cold.HitRate)
	}
	if a.Snapshot(nil) != nil {
		t.Error("Snapshot(nil) != nil")
	}
}

func TestSnapshotTieBrokenByName(t *testing.T) {
	a := New(1<<20, 4096)
	bufs := []mmu.Buffer{
		{Name: "b", Addr: 4096, Size: 4096},
		{Name: "a", Addr: 0, Size: 4096},
	}
	heats := a.Snapshot(bufs) // no traffic: equal (zero) scores
	if heats[0].Name != "a" || heats[1].Name != "b" {
		t.Errorf("tie order = %s, %s; want a, b", heats[0].Name, heats[1].Name)
	}
}

func TestRender(t *testing.T) {
	a := New(1<<20, 4096)
	for off := int64(0); off < 4096; off += 64 {
		a.Record(off, 64, false, false)
	}
	heats := a.Snapshot([]mmu.Buffer{{Name: "buf", Addr: 0, Size: 4096, Kind: mmu.Pinned}})
	out := Render(heats)
	for _, want := range []string{"buffer", "buf", "pinned", "####"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	if got := Render(nil); !strings.Contains(got, "no buffers") {
		t.Errorf("Render(nil) = %q", got)
	}
}

// TestRecordPathZeroAlloc is the perf gate on the accumulator's hot path:
// heat recording rides inside the cache simulator's per-line loop, so a
// single allocation per record would dominate the simulation.
func TestRecordPathZeroAlloc(t *testing.T) {
	a := New(1<<20, 4096)
	if n := testing.AllocsPerRun(1000, func() {
		a.Record(4096, 64, true, true)
		a.RecordRun(4096, 4, false, true, 16)
		a.RecordWriteback(4096, 64)
	}); n != 0 {
		t.Errorf("record path allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.Reset() }); n != 0 {
		t.Errorf("Reset allocates %v per op, want 0", n)
	}
}

// TestRecordRunMatchesRecords holds RecordRun to n Record calls on twin
// accumulators over a seeded mix: runs on fresh and on touched pages, of
// reads and writes, hits and misses, empty runs, runs past the extent,
// interleaved with single records and writebacks that move the clock and
// the pages' last touches.
func TestRecordRunMatchesRecords(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	const extent, page = 1 << 16, 1 << 10
	run, rec := New(extent, page), New(extent, page)
	for i := 0; i < 2000; i++ {
		addr := int64(next() % (extent + 4*page))
		size, write, miss := int64(next()%64)+1, next()%2 == 0, next()%2 == 0
		switch next() % 4 {
		case 0:
			run.Record(addr, size, write, miss)
			rec.Record(addr, size, write, miss)
		case 1:
			run.RecordWriteback(addr, size)
			rec.RecordWriteback(addr, size)
		default:
			n := int64(next() % 20)
			run.RecordRun(addr, size, write, miss, n)
			base := addr &^ (page - 1)
			for k := int64(0); k < n; k++ {
				rec.Record(base+int64(next()%page), size, write, miss)
			}
		}
		if !reflect.DeepEqual(run, rec) {
			t.Fatalf("step %d: RecordRun diverged from Record calls", i)
		}
	}
	if rec.Clock() == 0 || rec.Totals().Reads == 0 {
		t.Fatal("the mix recorded nothing")
	}
}
