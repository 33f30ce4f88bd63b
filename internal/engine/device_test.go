package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/framework"
	"igpucomm/internal/isa"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
)

// mustDevice resolves (cfg, p) or fails the test.
func mustDevice(tb testing.TB, cfg soc.Config, p microbench.Params) Device {
	tb.Helper()
	d, err := NewDevice(cfg, p)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// catalogDevices is every platform devices.ByName resolves.
func catalogDevices() []soc.Config {
	return append(devices.All(), devices.APU())
}

// A Device's key is CacheKey's, for every catalog device at both parameter
// scales, and it stays the key of what the engine characterizes after the
// caller mutates the config and params it built the Device from.
func TestNewDeviceKeyMatchesCacheKey(t *testing.T) {
	for _, p := range []microbench.Params{microbench.DefaultParams(), microbench.TestParams()} {
		for _, cfg := range catalogDevices() {
			want, err := CacheKey(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			d := mustDevice(t, cfg, p)
			if key, err := d.cacheKey(); err != nil || key != want {
				t.Errorf("%s: device key %q (%v), want CacheKey %q", cfg.Name, key, err, want)
			}
			if d.Name() != cfg.Name {
				t.Errorf("device name %q, want %q", d.Name(), cfg.Name)
			}
		}
	}

	cfg, p := devices.TX2(), microbench.TestParams()
	d := mustDevice(t, cfg, p)
	p.MB2Fractions[0] = 0.5
	cfg.GPU.Costs.Issue[isa.LdGlobal] = 99
	d.Config().CPU.Costs.Issue[isa.LdGlobal] = 99

	e := New(Options{Workers: 2})
	if _, err := e.Advise(context.Background(), Request{Device: d, App: "shwfs", Scale: catalog.Micro, Current: "sc"}); err != nil {
		t.Fatal(err)
	}
	want, err := New(Options{Workers: 2}).Characterize(context.Background(), devices.TX2(), microbench.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	wantKey, err := CacheKey(devices.TX2(), microbench.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := e.CacheExport()[wantKey]
	if !ok || len(e.CacheExport()) != 1 {
		t.Fatalf("characterizations %d, want one under the unmutated key", len(e.CacheExport()))
	}
	if !bytes.Equal(saved(t, got), saved(t, want)) {
		t.Error("characterization after mutating the caller's inputs differs from the unmutated one")
	}
}

func saved(t *testing.T, char framework.Characterization) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := framework.SaveCharacterization(&buf, char); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A Device whose key cannot be derived fails every Advise with the
// derivation error, and a Request without a Device is refused.
func TestAdviseRejectsUnresolvedDevice(t *testing.T) {
	p := microbench.TestParams()
	p.MB2Fractions = append(p.MB2Fractions, math.NaN())
	_, want := CacheKey(devices.TX2(), p)
	d, err := NewDevice(devices.TX2(), p)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("NewDevice error %v, want CacheKey's %v", err, want)
	}
	e := New(Options{Workers: 2})
	if _, err := e.Advise(context.Background(), Request{Device: d, App: "shwfs", Scale: catalog.Micro}); err == nil || err.Error() != want.Error() {
		t.Errorf("advise on an unkeyed device: %v, want %v", err, want)
	}
	if d.Name() != devices.TX2Name {
		t.Errorf("unkeyed device name %q, want %q", d.Name(), devices.TX2Name)
	}
	if _, err := e.Advise(context.Background(), Request{App: "shwfs", Scale: catalog.Micro}); !errors.Is(err, errNoDevice) {
		t.Errorf("advise without a device: %v, want errNoDevice", err)
	}
	if st := e.Stats(); st.Characterizations.Executions+st.Advice.Executions != 0 {
		t.Errorf("stats %+v, want nothing executed", st)
	}
}

// The warm read path's work gate: a question the advice memo holds costs
// the question string and nothing else that allocates.
func TestAdviseWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	e := New(Options{Workers: 2})
	req := Request{Device: mustDevice(t, devices.TX2(), microbench.TestParams()), App: "shwfs", Scale: catalog.Micro, Current: "sc"}
	ctx := context.Background()
	if _, err := e.Advise(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Advise(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warm Advise allocates %.0f times, want at most 2", allocs)
	}
	if a := e.Stats().Advice; a.Executions != 1 {
		t.Errorf("advice executions %d, want 1 (every timed call a hit)", a.Executions)
	}
}
