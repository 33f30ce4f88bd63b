package devices

import (
	"reflect"
	"testing"

	"igpucomm/internal/soc"
)

func TestAllConfigsValid(t *testing.T) {
	cfgs := All()
	if len(cfgs) != 3 {
		t.Fatalf("catalog size = %d, want 3", len(cfgs))
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

// ByName returns, for every name it knows, the same config as that
// platform's All() or APU() entry, and refuses anything else with the
// catalog's list of names.
func TestByName(t *testing.T) {
	for _, want := range append(All(), APU()) {
		cfg, err := ByName(want.Name)
		if err != nil {
			t.Errorf("%s: %v", want.Name, err)
		}
		if !reflect.DeepEqual(cfg, want) {
			t.Errorf("ByName(%q) = %+v, want %+v", want.Name, cfg, want)
		}
	}
	_, err := ByName("jetson-orin")
	const want = `devices: unknown platform "jetson-orin" (have jetson-nano, jetson-tx2, jetson-agx-xavier, embedded-apu)`
	if err == nil || err.Error() != want {
		t.Errorf("unknown platform error = %v, want %s", err, want)
	}
}

func TestNewSoCInstantiates(t *testing.T) {
	for _, name := range []string{NanoName, TX2Name, XavierName} {
		s, err := NewSoC(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("SoC name = %q, want %q", s.Name(), name)
		}
	}
	if _, err := NewSoC("nope"); err == nil {
		t.Error("unknown platform instantiated")
	}
}

func TestOnlyXavierIsIOCoherent(t *testing.T) {
	tests := map[string]bool{NanoName: false, TX2Name: false, XavierName: true}
	for name, want := range tests {
		cfg, _ := ByName(name)
		if cfg.IOCoherent != want {
			t.Errorf("%s IOCoherent = %v, want %v", name, cfg.IOCoherent, want)
		}
	}
}

func TestPerformanceOrdering(t *testing.T) {
	nano, tx2, xavier := Nano(), TX2(), Xavier()
	if !(nano.GPU.SMs < tx2.GPU.SMs && tx2.GPU.SMs < xavier.GPU.SMs) {
		t.Error("SM counts not increasing Nano < TX2 < Xavier")
	}
	if !(nano.DRAM.Bandwidth < tx2.DRAM.Bandwidth && tx2.DRAM.Bandwidth < xavier.DRAM.Bandwidth) {
		t.Error("DRAM bandwidths not increasing")
	}
	if !(nano.GPU.LLCBandwidth < tx2.GPU.LLCBandwidth && tx2.GPU.LLCBandwidth < xavier.GPU.LLCBandwidth) {
		t.Error("GPU LLC bandwidths not increasing")
	}
	if !(nano.CopyBandwidth < tx2.CopyBandwidth && tx2.CopyBandwidth < xavier.CopyBandwidth) {
		t.Error("copy bandwidths not increasing")
	}
}

func TestZeroCopyPathGap(t *testing.T) {
	// The calibrated pinned-path/LLC throughput gap should reflect the
	// paper's Table I: ~77x on TX2, ~7x on Xavier.
	tx2 := TX2()
	gap := float64(tx2.GPU.LLCBandwidth) / float64(tx2.PinnedBandwidth)
	if gap < 60 || gap > 90 {
		t.Errorf("TX2 cached/pinned gap = %.1fx, want ~77x", gap)
	}
	xavier := Xavier()
	gap = float64(xavier.GPU.LLCBandwidth) / float64(xavier.IOBandwidth)
	if gap < 5 || gap > 9 {
		t.Errorf("Xavier cached/coherent gap = %.1fx, want ~7x", gap)
	}
}

func TestCatalogIsData(t *testing.T) {
	// Each call returns an independent value: mutating one must not leak.
	a := TX2()
	a.GPU.SMs = 99
	if TX2().GPU.SMs == 99 {
		t.Error("catalog entries share state")
	}
	var _ soc.Config = a
}
