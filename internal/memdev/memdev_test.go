package memdev

import (
	"math"
	"testing"
	"testing/quick"

	"igpucomm/internal/cache"
	"igpucomm/internal/units"
)

func newDRAM() *DRAM {
	return New(Config{Name: "dram", Latency: 100, Bandwidth: 25 * units.GBps})
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Name: "ok", Latency: 10, Bandwidth: units.GBps}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (Config{Name: "neg", Latency: -1, Bandwidth: units.GBps}).Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	if err := (Config{Name: "nobw", Latency: 1, Bandwidth: 0}).Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New did not panic on invalid config")
		}
	}()
	New(Config{Name: "bad", Bandwidth: 0})
}

func TestDRAMLatencyAndCounters(t *testing.T) {
	d := newDRAM()
	r := d.Do(cache.Access{Addr: 0, Size: 64, Kind: cache.Read})
	if r.Latency != 100 {
		t.Errorf("read = %+v, want latency 100", r)
	}
	if r := d.Do(cache.Access{Addr: 64, Size: 64, Kind: cache.Writeback}); r.Latency != 0 {
		t.Errorf("writeback latency = %v, want 0 (posted)", r.Latency)
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writebacks != 1 || st.BytesRead != 64 || st.BytesWritten != 64 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes() != 128 {
		t.Errorf("total bytes = %d, want 128", st.Bytes())
	}
}

func TestDemandWriteCountsAsLineFetch(t *testing.T) {
	d := newDRAM()
	d.Do(cache.Access{Addr: 0, Size: 64, Kind: cache.Write})
	st := d.Stats()
	if st.Writes != 1 || st.BytesRead != 64 {
		t.Errorf("write-allocate accounting wrong: %+v", st)
	}
}

func TestPortAttribution(t *testing.T) {
	d := newDRAM()
	p := d.NewPort("gpu")
	if r := p.Do(cache.Access{Addr: 0, Size: 64, Kind: cache.Read}); r.Latency != 100 {
		t.Errorf("port latency = %v, want device 100", r.Latency)
	}
	d.NewPort("cpu").Do(cache.Access{Addr: 0, Size: 64, Kind: cache.Read})
	if d.Stats().Reads != 2 {
		t.Errorf("device reads = %d, want 2 (both ports)", d.Stats().Reads)
	}
	if p.Stats().Reads != 1 {
		t.Errorf("port reads = %d, want 1", p.Stats().Reads)
	}
}

func TestPortWritebackKeepsZeroLatency(t *testing.T) {
	d := newDRAM()
	p := d.NewPort("cpu")
	if r := p.Do(cache.Access{Addr: 0, Size: 64, Kind: cache.Writeback}); r.Latency != 0 {
		t.Errorf("writeback via port latency = %v, want 0", r.Latency)
	}
}

func TestUncachedPortWriteGoesToMemory(t *testing.T) {
	d := newDRAM()
	u := d.NewUncachedPortRW("pinned", 500, 50)
	r := u.Do(cache.Access{Addr: 0, Size: 4, Kind: cache.Write})
	if r.Latency != 50 {
		t.Errorf("uncached write = %+v, want write-combined latency 50", r)
	}
	st := u.Stats()
	if st.Writes != 1 || st.BytesWritten != 4 || st.BytesRead != 0 {
		t.Errorf("uncached write accounting wrong: %+v", st)
	}
	if d.Stats().BytesWritten != 4 {
		t.Errorf("device bytes written = %d, want 4", d.Stats().BytesWritten)
	}
}

func TestUncachedPortReads(t *testing.T) {
	d := newDRAM()
	u := d.NewUncachedPortRW("pinned", 500, 50)
	u.Do(cache.Access{Addr: 0, Size: 4, Kind: cache.Read})
	if st := u.Stats(); st.Reads != 1 || st.BytesRead != 4 {
		t.Errorf("uncached read accounting wrong: %+v", st)
	}
}

func TestDegenerateAccesses(t *testing.T) {
	d := newDRAM()
	p := d.NewPort("p")
	u := d.NewUncachedPortRW("u", 10, 1)
	for _, r := range []cache.Result{
		d.Do(cache.Access{Size: 0}),
		p.Do(cache.Access{Size: -1}),
		u.Do(cache.Access{Size: 0}),
	} {
		if r != (cache.Result{}) {
			t.Errorf("degenerate access produced %+v", r)
		}
	}
	if d.Stats() != (Stats{}) {
		t.Error("degenerate accesses counted")
	}
}

func TestResetStats(t *testing.T) {
	d := newDRAM()
	p := d.NewPort("p")
	p.Do(cache.Access{Addr: 0, Size: 64, Kind: cache.Read})
	p.ResetStats()
	d.ResetStats()
	if p.Stats() != (Stats{}) || d.Stats() != (Stats{}) {
		t.Error("stats survived reset")
	}
}

func TestShareUnderSubscribed(t *testing.T) {
	grants := Share(10*units.GBps, []Demand{
		{Name: "cpu", Want: 2 * units.GBps},
		{Name: "gpu", Want: 3 * units.GBps},
	})
	if grants[0] != 2*units.GBps || grants[1] != 3*units.GBps {
		t.Errorf("grants = %v, want demands honoured", grants)
	}
}

func TestShareOverSubscribedEven(t *testing.T) {
	grants := Share(10*units.GBps, []Demand{
		{Name: "cpu", Want: 20 * units.GBps},
		{Name: "gpu", Want: 20 * units.GBps},
	})
	if grants[0] != 5*units.GBps || grants[1] != 5*units.GBps {
		t.Errorf("grants = %v, want even 5/5", grants)
	}
}

func TestShareWaterFilling(t *testing.T) {
	// Small stream keeps its demand; big streams split the rest.
	grants := Share(10*units.GBps, []Demand{
		{Name: "small", Want: 1 * units.GBps},
		{Name: "big1", Want: 20 * units.GBps},
		{Name: "big2", Want: 20 * units.GBps},
	})
	if grants[0] != 1*units.GBps {
		t.Errorf("small grant = %v, want its 1GB/s demand", grants[0])
	}
	if math.Abs(float64(grants[1]-4.5*units.GBps)) > 1 || math.Abs(float64(grants[2]-4.5*units.GBps)) > 1 {
		t.Errorf("big grants = %v/%v, want 4.5 each", grants[1], grants[2])
	}
}

func TestShareEdgeCases(t *testing.T) {
	if g := Share(0, []Demand{{Want: units.GBps}}); g[0] != 0 {
		t.Error("zero peak should grant nothing")
	}
	if g := Share(units.GBps, nil); len(g) != 0 {
		t.Error("nil demands should return empty grants")
	}
	g := Share(units.GBps, []Demand{{Want: 0}, {Want: -5}})
	if g[0] != 0 || g[1] != 0 {
		t.Error("non-positive demands should grant zero")
	}
}

// Property: grants never exceed demands, never exceed peak in total, and a
// lone stream gets min(demand, peak).
func TestPropertyShareSound(t *testing.T) {
	f := func(wants []uint16, peakU uint16) bool {
		peak := units.BytesPerSecond(peakU) * units.MBps
		demands := make([]Demand, len(wants))
		for i, w := range wants {
			demands[i] = Demand{Want: units.BytesPerSecond(w) * units.MBps}
		}
		grants := Share(peak, demands)
		var total units.BytesPerSecond
		for i, g := range grants {
			if g > demands[i].Want+1e-6 {
				return false
			}
			total += g
		}
		return total <= peak+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSlowdown(t *testing.T) {
	if s := Slowdown(10*units.GBps, 5*units.GBps); s != 2 {
		t.Errorf("slowdown = %v, want 2", s)
	}
	if s := Slowdown(5*units.GBps, 10*units.GBps); s != 1 {
		t.Errorf("grant above demand slowdown = %v, want 1", s)
	}
	if s := Slowdown(0, 0); s != 1 {
		t.Errorf("degenerate slowdown = %v, want 1", s)
	}
}

func TestAccessorsAndStatsAdd(t *testing.T) {
	d := newDRAM()
	if d.Name() != "dram" || d.Config().Latency != 100 {
		t.Error("device accessors wrong")
	}
	p := d.NewPort("cpu")
	if p.Name() != "cpu" {
		t.Error("port name wrong")
	}
	u := d.NewUncachedPortRW("pin", 10, 1)
	if u.Name() != "pin" {
		t.Error("uncached port name wrong")
	}
	u.Do(cache.Access{Addr: 0, Size: 4, Kind: cache.Read})
	u.ResetStats()
	if u.Stats() != (Stats{}) {
		t.Error("uncached reset failed")
	}
	a := Stats{Reads: 1, BytesRead: 64}
	a.Add(Stats{Writes: 2, Writebacks: 3, BytesWritten: 128})
	if a.Reads != 1 || a.Writes != 2 || a.Writebacks != 3 || a.Bytes() != 192 {
		t.Errorf("Add wrong: %+v", a)
	}
}

// TestUncachedPortDoRunMatchesDo drives seeded request groups — runs of
// equal requests, lone requests of any size, degenerate sizes, every kind —
// through two uncached ports on separate devices, one a Do per request and
// one run by run with DoRun: every latency and the port and device
// counters must match, and the runs must actually batch requests.
func TestUncachedPortDoRunMatchesDo(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	serialDRAM, runDRAM := newDRAM(), newDRAM()
	serial := serialDRAM.NewUncachedPortRW("pin", 500.5, 50.25)
	run := runDRAM.NewUncachedPortRW("pin", 500.5, 50.25)
	var reqs, runs int
	for group := 0; group < 300; group++ {
		var accs []cache.Access
		for len(accs) < 64 {
			a := cache.Access{Addr: int64(next() % 65536), Size: int64(next()%6) - 1, Kind: cache.Kind(next() % 3)}
			for l := next() % 24; l > 0; l-- {
				accs = append(accs, a)
				a.Addr += 4
			}
		}
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
		if run.Stats() != serial.Stats() || runDRAM.Stats() != serialDRAM.Stats() {
			t.Fatalf("group %d: DoRun counters port %+v device %+v, Do port %+v device %+v",
				group, run.Stats(), runDRAM.Stats(), serial.Stats(), serialDRAM.Stats())
		}
	}
	if st := serial.Stats(); st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("stream exercised only one direction: %+v", st)
	}
	if runs*4 > reqs {
		t.Fatalf("%d DoRun calls for %d requests: the runs barely batch", runs, reqs)
	}
}
