package calibrate

import (
	"context"
	"testing"

	"igpucomm/internal/devices"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
	"igpucomm/internal/units"
)

// reference measures the stock TX2 at test scale; the tuning tests then
// perturb a parameter and require the harness to recover it.
func reference(t *testing.T) (soc.Config, units.BytesPerSecond, units.BytesPerSecond) {
	t.Helper()
	cfg := devices.TX2()
	p := microbench.TestParams()
	res, err := SerialMB1(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, res.PeakThroughput(), res.PinnedThroughput()
}

func TestTargetValidate(t *testing.T) {
	good := Target{SCThroughput: 97 * units.GBps, ZCThroughput: 1.28 * units.GBps, Tolerance: 0.05}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid target rejected: %v", err)
	}
	if err := (Target{Tolerance: 0.05}).Validate(); err == nil {
		t.Error("empty target accepted")
	}
	if err := (Target{SCThroughput: units.GBps, Tolerance: 0}).Validate(); err == nil {
		t.Error("zero tolerance accepted")
	}
	if err := (Target{SCThroughput: units.GBps, Tolerance: 1.5}).Validate(); err == nil {
		t.Error("huge tolerance accepted")
	}
}

func TestTuneLLCBandwidthRecoversPerturbation(t *testing.T) {
	cfg, scRef, _ := reference(t)
	p := microbench.TestParams()

	perturbed := cfg
	perturbed.GPU.LLCBandwidth = cfg.GPU.LLCBandwidth * 2.5
	fitted, err := TuneLLCBandwidth(context.Background(), SerialMB1, perturbed, p, scRef, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SerialMB1(context.Background(), fitted, p)
	if err != nil {
		t.Fatal(err)
	}
	got := res.PeakThroughput()
	rel := (float64(got) - float64(scRef)) / float64(scRef)
	if rel < -0.04 || rel > 0.04 {
		t.Errorf("fitted SC throughput %.2f GB/s misses reference %.2f GB/s by %.1f%%",
			got.GB(), scRef.GB(), rel*100)
	}
}

func TestTunePinnedBandwidthRecoversPerturbation(t *testing.T) {
	cfg, _, zcRef := reference(t)
	p := microbench.TestParams()

	perturbed := cfg
	perturbed.PinnedBandwidth = cfg.PinnedBandwidth * 3
	fitted, err := TunePinnedBandwidth(context.Background(), SerialMB1, perturbed, p, zcRef, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SerialMB1(context.Background(), fitted, p)
	if err != nil {
		t.Fatal(err)
	}
	got := res.PinnedThroughput()
	rel := (float64(got) - float64(zcRef)) / float64(zcRef)
	if rel < -0.04 || rel > 0.04 {
		t.Errorf("fitted ZC throughput %.2f GB/s misses reference %.2f GB/s by %.1f%%",
			got.GB(), zcRef.GB(), rel*100)
	}
}

func TestTuneRejectsUnreachableTarget(t *testing.T) {
	cfg, _, _ := reference(t)
	p := microbench.TestParams()
	// At test scale the kernel cannot possibly reach 10 TB/s no matter how
	// fast the LLC is (compute binds first).
	if _, err := TuneLLCBandwidth(context.Background(), SerialMB1, cfg, p, 10000*units.GBps, 0.05); err == nil {
		t.Error("unreachable target accepted")
	}
	if _, err := TuneLLCBandwidth(context.Background(), SerialMB1, cfg, p, 0, 0.05); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := TunePinnedBandwidth(context.Background(), SerialMB1, cfg, p, 0, 0.05); err == nil {
		t.Error("zero pinned target accepted")
	}
}

func TestVerify(t *testing.T) {
	cfg, scRef, zcRef := reference(t)
	p := microbench.TestParams()
	if err := Verify(context.Background(), SerialMB1, cfg, p, Target{SCThroughput: scRef, ZCThroughput: zcRef, Tolerance: 0.02}); err != nil {
		t.Errorf("stock config fails its own reference: %v", err)
	}
	if err := Verify(context.Background(), SerialMB1, cfg, p, Target{SCThroughput: scRef * 2, Tolerance: 0.02}); err == nil {
		t.Error("doubled target verified")
	}
	if err := Verify(context.Background(), SerialMB1, cfg, p, Target{}); err == nil {
		t.Error("invalid target verified")
	}
}

func TestVerifyCoherentPath(t *testing.T) {
	// The Xavier catalog must reproduce its Table-I ZC value through the
	// I/O-coherent port at full scale — the actual calibration claim.
	if testing.Short() {
		t.Skip("full-scale calibration check")
	}
	err := Verify(context.Background(), SerialMB1, devices.Xavier(), microbench.DefaultParams(), Target{
		SCThroughput: 214.64 * units.GBps,
		ZCThroughput: 32.29 * units.GBps,
		Tolerance:    0.07,
	})
	if err != nil {
		t.Error(err)
	}
}

func TestVerifyTX2FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale calibration check")
	}
	err := Verify(context.Background(), SerialMB1, devices.TX2(), microbench.DefaultParams(), Target{
		SCThroughput: 97.34 * units.GBps,
		ZCThroughput: 1.28 * units.GBps,
		Tolerance:    0.07,
	})
	if err != nil {
		t.Error(err)
	}
}
