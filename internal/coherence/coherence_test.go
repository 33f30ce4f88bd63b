package coherence

import (
	"testing"

	"igpucomm/internal/cache"
	"igpucomm/internal/memdev"
	"igpucomm/internal/units"
)

func cpuLLC(t *testing.T) (*cache.Cache, *memdev.DRAM) {
	t.Helper()
	d := memdev.New(memdev.Config{Name: "dram", Latency: 150, Bandwidth: 25 * units.GBps})
	llc := cache.New(cache.Config{Name: "cpuLLC", Size: 8 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 25}, d.NewPort("cpu"))
	return llc, d
}

func TestNewIOPortPanics(t *testing.T) {
	llc, _ := cpuLLC(t)
	for name, f := range map[string]func(){
		"nil target":  func() { NewIOPort("io", nil, 10) },
		"neg latency": func() { NewIOPort("io", llc, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestIOPortSnoopsCPULLC(t *testing.T) {
	llc, _ := cpuLLC(t)
	// CPU warmed the line.
	llc.Do(cache.Access{Addr: 0, Size: 64, Kind: cache.Write})
	p := NewIOPort("io", llc, 30)
	r := p.Do(cache.Access{Addr: 0, Size: 64, Kind: cache.Read})
	// LLC hit 25 + interconnect 30.
	if r.Latency != 55 {
		t.Errorf("snoop hit latency = %v, want 55", r.Latency)
	}
	if st := llc.Stats(); st.ReadHits != 1 {
		t.Errorf("LLC read hits = %d, want the snoop's 1", st.ReadHits)
	}
}

func TestIOPortMissGoesToDRAM(t *testing.T) {
	llc, d := cpuLLC(t)
	p := NewIOPort("io", llc, 30)
	r := p.Do(cache.Access{Addr: 4096, Size: 64, Kind: cache.Read})
	if r.Latency != 205 { // 25 LLC + 150 DRAM + 30 hop
		t.Errorf("miss latency = %v, want 205", r.Latency)
	}
	if d.Stats().Reads != 1 {
		t.Error("miss did not reach DRAM")
	}
}

func TestIOPortStats(t *testing.T) {
	llc, _ := cpuLLC(t)
	p := NewIOPort("io", llc, 10)
	p.Do(cache.Access{Addr: 0, Size: 64, Kind: cache.Read})
	p.Do(cache.Access{Addr: 64, Size: 64, Kind: cache.Write})
	p.Do(cache.Access{Addr: 128, Size: 64, Kind: cache.Writeback})
	st := p.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Writebacks != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesRead != 64 || st.BytesWritten != 128 {
		t.Errorf("bytes = %d/%d, want 64/128", st.BytesRead, st.BytesWritten)
	}
	p.ResetStats()
	if p.Stats() != (memdev.Stats{}) {
		t.Error("stats survived reset")
	}
}

func TestIOPortDegenerateAccess(t *testing.T) {
	llc, _ := cpuLLC(t)
	p := NewIOPort("io", llc, 10)
	if r := p.Do(cache.Access{Size: 0}); r.Latency != 0 {
		t.Error("zero-size access did work")
	}
}

// TestIOPortDoBatchMatchesDo drives seeded transaction groups through two
// identical LLC-over-DRAM hierarchies, one per access with Do and one with
// DoBatch: latencies, port counters, CPU-LLC and DRAM counters and LLC
// residency must match exactly.
func TestIOPortDoBatchMatchesDo(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	const span = 64 * units.KiB
	serialLLC, serialDRAM := cpuLLC(t)
	batchLLC, batchDRAM := cpuLLC(t)
	serial := NewIOPort("io", serialLLC, 30)
	batch := NewIOPort("io", batchLLC, 30)
	var scratch cache.Batch
	for group := 0; group < 200; group++ {
		accs := make([]cache.Access, int(next()%48)+1)
		for i := range accs {
			accs[i] = cache.Access{
				Addr: int64(next() % uint64(span)),
				Size: int64(next()%130) - 1, // -1 and 0 are degenerate
				Kind: cache.Kind(next() % 3),
			}
		}
		out := make([]cache.Result, len(accs))
		batch.DoBatch(accs, out, &scratch)
		for i, a := range accs {
			if want := serial.Do(a); out[i] != want {
				t.Fatalf("group %d access %d (%+v): batch %+v, per access %+v", group, i, a, out[i], want)
			}
		}
		if batch.Stats() != serial.Stats() {
			t.Fatalf("group %d: port stats batch %+v, per access %+v", group, batch.Stats(), serial.Stats())
		}
		if batchLLC.Stats() != serialLLC.Stats() {
			t.Fatalf("group %d: LLC stats batch %+v, per access %+v", group, batchLLC.Stats(), serialLLC.Stats())
		}
		if batchDRAM.Stats() != serialDRAM.Stats() {
			t.Fatalf("group %d: DRAM stats batch %+v, per access %+v", group, batchDRAM.Stats(), serialDRAM.Stats())
		}
	}
	if batchLLC.ResidentLines() != serialLLC.ResidentLines() {
		t.Fatalf("resident lines batch %d, per access %d", batchLLC.ResidentLines(), serialLLC.ResidentLines())
	}
	for addr := int64(0); addr < span; addr += 64 {
		if batchLLC.Contains(addr) != serialLLC.Contains(addr) {
			t.Fatalf("line %#x: resident in batch %v, per access %v", addr, batchLLC.Contains(addr), serialLLC.Contains(addr))
		}
	}
	if serial.Stats().Writebacks == 0 || serialLLC.Stats().Writebacks == 0 {
		t.Fatal("stream exercised no writebacks")
	}
}
