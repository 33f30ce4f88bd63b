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

// runStream is a seeded group of pinned-path requests shaped like the
// GPU's: runs of 4- or 8-byte lane requests, from aligned or misaligned
// starts, so runs cross line boundaries and single lanes straddle two
// lines, some of one kind and some switching kind or size mid-line; lone
// requests of any size up to two lines; and degenerate sizes.
func runStream(next func() uint64, span int64) []cache.Access {
	var accs []cache.Access
	for len(accs) < 64 {
		kind := cache.Kind(next() % 3)
		addr := int64(next() % uint64(span))
		switch next() % 4 {
		case 0, 1:
			mixed, size := next()%2 == 0, int64(4+4*(next()%2))
			for l := next() % 40; l > 0; l-- {
				if mixed && next()%4 == 0 {
					kind, size = cache.Kind(next()%3), int64(4+4*(next()%2))
				}
				accs = append(accs, cache.Access{Addr: addr, Size: size, Kind: kind})
				addr += size
			}
		case 2:
			accs = append(accs, cache.Access{Addr: addr, Size: int64(next()%130) + 1, Kind: kind})
		default:
			accs = append(accs, cache.Access{Addr: addr, Size: -int64(next() % 2), Kind: kind})
		}
	}
	return accs
}

// TestIOPortDoRunMatchesDo drives seeded request groups through two
// identical LLC-over-DRAM hierarchies, one a Do per request and one run by
// run with DoRun: every request's latency, the port, CPU-LLC and DRAM
// counters and LLC residency must match exactly, and the runs must
// actually batch requests.
func TestIOPortDoRunMatchesDo(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	const span = 64 * units.KiB
	serialLLC, serialDRAM := cpuLLC(t)
	runLLC, runDRAM := cpuLLC(t)
	serial := NewIOPort("io", serialLLC, 30)
	run := NewIOPort("io", runLLC, 30)
	var reqs, runs int
	for group := 0; group < 300; group++ {
		accs := runStream(next, span)
		for j := 0; j < len(accs); runs++ {
			n, first, rest := run.DoRun(accs[j:])
			if n < 1 || j+n > len(accs) {
				t.Fatalf("group %d: DoRun at %d serviced %d of %d requests", group, j, n, len(accs)-j)
			}
			for k := 0; k < n; k++ {
				got := first
				if k > 0 {
					got = rest
				}
				if want := serial.Do(accs[j+k]).Latency; got != want {
					t.Fatalf("group %d request %d (%+v, run of %d): DoRun latency %v, Do %v", group, j+k, accs[j+k], n, got, want)
				}
			}
			j += n
		}
		reqs += len(accs)
		if run.Stats() != serial.Stats() {
			t.Fatalf("group %d: port stats DoRun %+v, Do %+v", group, run.Stats(), serial.Stats())
		}
		if runLLC.Stats() != serialLLC.Stats() {
			t.Fatalf("group %d: LLC stats DoRun %+v, Do %+v", group, runLLC.Stats(), serialLLC.Stats())
		}
		if runDRAM.Stats() != serialDRAM.Stats() {
			t.Fatalf("group %d: DRAM stats DoRun %+v, Do %+v", group, runDRAM.Stats(), serialDRAM.Stats())
		}
	}
	for addr := int64(0); addr < span; addr += 64 {
		if runLLC.Contains(addr) != serialLLC.Contains(addr) {
			t.Fatalf("line %#x: resident after DoRun %v, after Do %v", addr, runLLC.Contains(addr), serialLLC.Contains(addr))
		}
	}
	if serial.Stats().Writebacks == 0 || serialLLC.Stats().Writebacks == 0 {
		t.Fatal("stream exercised no writebacks")
	}
	if runs*2 > reqs {
		t.Fatalf("%d DoRun calls for %d requests: the runs barely batch", runs, reqs)
	}
}
