package microbench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"igpucomm/internal/devices"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
	"igpucomm/internal/units"
)

// mb1On, mb2On and mb3On run one benchmark of the plan serially on s.
func mb1On(s *soc.SoC, p Params) (MB1Result, error) {
	return MB1(context.Background(), s.Name(), p, Serial(s))
}

func mb2On(s *soc.SoC, p Params, peak units.BytesPerSecond) (MB2Result, error) {
	return MB2(context.Background(), s.Name(), s.IOCoherent(), p, peak, Serial(s))
}

func mb3On(s *soc.SoC, p Params) (MB3Result, error) {
	return MB3(context.Background(), s.Name(), p, Serial(s))
}

// TestCharacterizeStages pins the plan's work: stage 1 is the three MB1
// model rows plus one MB3 job, stage 2 is every GPU sweep point then every
// CPU sweep point, each in sweep order. A job is identified by the first
// span it opens.
func TestCharacterizeStages(t *testing.T) {
	p := TestParams()
	s := soc.New(devices.TX2())
	tr := telemetry.NewTracer(telemetry.TracerOptions{})
	ctx := telemetry.WithTracer(context.Background(), tr)
	var stages [][]string
	record := func(ctx context.Context, jobs []Job) error {
		var names []string
		for _, job := range jobs {
			first := tr.Len()
			if err := job(ctx, s); err != nil {
				return err
			}
			sp := tr.Spans()[first]
			names = append(names, sp.Name+" "+sp.Attrs()[0].Value)
		}
		stages = append(stages, names)
		return nil
	}
	res, err := Characterize(ctx, s.Name(), s.IOCoherent(), p, record)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"mb1.model sc", "mb1.model um", "mb1.model zc", "mb3 " + devices.TX2Name}, nil}
	for _, pt := range []string{"mb2.gpu.point", "mb2.cpu.point"} {
		for _, f := range p.MB2Fractions {
			want[1] = append(want[1], fmt.Sprintf("%s %g", pt, f))
		}
	}
	if !reflect.DeepEqual(stages, want) {
		t.Errorf("stages = %q\nwant     %q", stages, want)
	}
	if res.Platform != devices.TX2Name || res.MB1.Platform != devices.TX2Name ||
		res.MB2.Platform != devices.TX2Name || res.MB3.Platform != devices.TX2Name {
		t.Errorf("platform names not threaded through: %+v", res)
	}
}

// TestSerialStopsAtFirstError: the serial runner reports the lowest-index
// error and runs nothing after it.
func TestSerialStopsAtFirstError(t *testing.T) {
	var ran []int
	job := func(i int, err error) Job {
		return func(context.Context, *soc.SoC) error {
			ran = append(ran, i)
			return err
		}
	}
	first, second := errors.New("first"), errors.New("second")
	err := Serial(nil)(context.Background(), []Job{job(0, nil), job(1, first), job(2, second)})
	if !errors.Is(err, first) || !reflect.DeepEqual(ran, []int{0, 1}) {
		t.Errorf("err = %v, ran = %v; want first, [0 1]", err, ran)
	}
}

func TestMB1RowsAndAccessors(t *testing.T) {
	s := soc.New(devices.TX2())
	res, err := mb1On(s, TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Platform != devices.TX2Name {
		t.Errorf("platform = %q", res.Platform)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want one per model", len(res.Rows))
	}
	for _, model := range []string{"sc", "um", "zc"} {
		row, ok := res.Row(model)
		if !ok {
			t.Fatalf("missing row %q", model)
		}
		if row.CPUTime <= 0 || row.KernelTime <= 0 || row.Throughput <= 0 {
			t.Errorf("%s: incomplete row %+v", model, row)
		}
	}
	if _, ok := res.Row("dma"); ok {
		t.Error("unknown model row found")
	}
}

func TestMB1ZeroCopyStarvesCache(t *testing.T) {
	for _, name := range []string{devices.TX2Name, devices.XavierName} {
		s, err := devices.NewSoC(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mb1On(s, TestParams())
		if err != nil {
			t.Fatal(err)
		}
		if res.PinnedThroughput() >= res.PeakThroughput() {
			t.Errorf("%s: pinned throughput %.1f not below cached %.1f",
				name, res.PinnedThroughput().GB(), res.PeakThroughput().GB())
		}
		if res.ZCSCMaxSpeedup() <= 1 {
			t.Errorf("%s: ZC/SC max speedup = %v, want > 1", name, res.ZCSCMaxSpeedup())
		}
	}
}

func TestMB1Table1Shape(t *testing.T) {
	// The calibrated full-scale run must land on the paper's Table I shape:
	// TX2 cached/pinned gap enormously larger than Xavier's.
	if testing.Short() {
		t.Skip("full-scale characterization")
	}
	p := DefaultParams()
	tx2, err := mb1On(soc.New(devices.TX2()), p)
	if err != nil {
		t.Fatal(err)
	}
	xavier, err := mb1On(soc.New(devices.Xavier()), p)
	if err != nil {
		t.Fatal(err)
	}
	if g := tx2.ZCSCMaxSpeedup(); g < 50 || g > 100 {
		t.Errorf("TX2 gap = %.1fx, want ~77x", g)
	}
	if g := xavier.ZCSCMaxSpeedup(); g < 4 || g > 10 {
		t.Errorf("Xavier gap = %.1fx, want ~7x", g)
	}
	if thr := tx2.PeakThroughput().GB(); thr < 80 || thr > 115 {
		t.Errorf("TX2 peak = %.1f GB/s, want ~97", thr)
	}
	if thr := xavier.PeakThroughput().GB(); thr < 190 || thr > 240 {
		t.Errorf("Xavier peak = %.1f GB/s, want ~215", thr)
	}
	if thr := tx2.PinnedThroughput().GB(); thr < 1.0 || thr > 1.6 {
		t.Errorf("TX2 pinned = %.2f GB/s, want ~1.28", thr)
	}
	if thr := xavier.PinnedThroughput().GB(); thr < 28 || thr > 36 {
		t.Errorf("Xavier pinned = %.1f GB/s, want ~32.3", thr)
	}
}

func TestMB1Fig5CPUShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale characterization")
	}
	p := DefaultParams()
	tx2, err := mb1On(soc.New(devices.TX2()), p)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := tx2.Row("sc")
	zc, _ := tx2.Row("zc")
	penalty := float64(zc.CPUTime) / float64(sc.CPUTime)
	// TX2 disables CPU caching of pinned buffers: the CPU routine slows
	// noticeably (the paper reports up to ~70%).
	if penalty < 1.3 || penalty > 2.5 {
		t.Errorf("TX2 ZC CPU penalty = %.2fx, want ~1.7x", penalty)
	}
	xavier, err := mb1On(soc.New(devices.Xavier()), p)
	if err != nil {
		t.Fatal(err)
	}
	scx, _ := xavier.Row("sc")
	zcx, _ := xavier.Row("zc")
	penaltyX := float64(zcx.CPUTime) / float64(scx.CPUTime)
	// Xavier's I/O coherence keeps the CPU cache on: no CPU penalty.
	if penaltyX > 1.05 {
		t.Errorf("Xavier ZC CPU penalty = %.2fx, want ~1.0x", penaltyX)
	}
}

func TestMB2ThresholdsStructure(t *testing.T) {
	s := soc.New(devices.TX2())
	p := TestParams()
	mb1, err := mb1On(s, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mb2On(s, p, mb1.PeakThroughput())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GPU) != len(p.MB2Fractions) || len(res.CPU) != len(p.MB2Fractions) {
		t.Fatalf("sweep lengths %d/%d, want %d", len(res.GPU), len(res.CPU), len(p.MB2Fractions))
	}
	if err := res.Thresholds.Validate(); err != nil {
		t.Fatal(err)
	}
	// TX2 is not I/O coherent: its CPU threshold must exist (below 100%).
	if res.Thresholds.CPUCache >= 1.0 {
		t.Error("TX2 CPU threshold should be below 100%")
	}
	for _, pt := range res.GPU {
		if pt.SCKernel <= 0 || pt.ZCKernel <= 0 {
			t.Errorf("f=%v: missing kernel times", pt.Fraction)
		}
		if pt.ZCKernel < pt.SCKernel {
			t.Errorf("f=%v: ZC kernel %v faster than SC %v on TX2", pt.Fraction, pt.ZCKernel, pt.SCKernel)
		}
	}
}

func TestMB2XavierHasWiderZCZone(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale characterization")
	}
	p := DefaultParams()
	thresholds := make(map[string]float64)
	zones := make(map[string]float64)
	for _, name := range []string{devices.TX2Name, devices.XavierName} {
		s, err := devices.NewSoC(name)
		if err != nil {
			t.Fatal(err)
		}
		mb1, err := mb1On(s, p)
		if err != nil {
			t.Fatal(err)
		}
		mb2, err := mb2On(s, p, mb1.PeakThroughput())
		if err != nil {
			t.Fatal(err)
		}
		thresholds[name] = mb2.Thresholds.GPUCacheLow
		zones[name] = mb2.Thresholds.GPUCacheHigh
	}
	// The I/O-coherent device tolerates much higher GPU cache usage under
	// ZC (paper: 16.2% vs 2.7%).
	if thresholds[devices.XavierName] <= 2*thresholds[devices.TX2Name] {
		t.Errorf("Xavier threshold %.3f not clearly above TX2 %.3f",
			thresholds[devices.XavierName], thresholds[devices.TX2Name])
	}
	if zones[devices.XavierName] <= thresholds[devices.XavierName] {
		t.Error("Xavier should have a usable middle zone")
	}
}

func TestMB2XavierCPUThresholdIs100(t *testing.T) {
	s := soc.New(devices.Xavier())
	p := TestParams()
	mb1, err := mb1On(s, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mb2On(s, p, mb1.PeakThroughput())
	if err != nil {
		t.Fatal(err)
	}
	if res.Thresholds.CPUCache != 1.0 {
		t.Errorf("Xavier CPU threshold = %v, want 1.0 (CPU cache never disabled)", res.Thresholds.CPUCache)
	}
	for _, pt := range res.CPU {
		if pt.Cached != pt.Uncached {
			t.Errorf("f=%v: Xavier CPU times differ under ZC (%v vs %v)", pt.Fraction, pt.Cached, pt.Uncached)
		}
	}
}

func TestMB2RejectsBadInputs(t *testing.T) {
	s := soc.New(devices.TX2())
	p := TestParams()
	if _, err := mb2On(s, p, 0); err == nil {
		t.Error("zero peak accepted")
	}
	p.MB2Fractions = []float64{0}
	if _, err := mb2On(s, p, units.GBps); err == nil {
		t.Error("zero fraction accepted")
	}
	p.MB2Fractions = []float64{1.5}
	if _, err := mb2On(s, p, units.GBps); err == nil {
		t.Error("fraction above 1 accepted")
	}
}

func TestMB3BalancedAndOverlapped(t *testing.T) {
	s := soc.New(devices.Xavier())
	res, err := mb3On(s, TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.SCTotal <= 0 || res.UMTotal <= 0 || res.ZCTotal <= 0 {
		t.Fatal("missing totals")
	}
	if res.ZCCPUTime <= 0 || res.ZCKernelTime <= 0 {
		t.Fatal("missing ZC component times")
	}
}

func TestMB3XavierZCWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale characterization")
	}
	res, err := mb3On(soc.New(devices.Xavier()), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 7: ZC up to 152% faster than SC, 164% than UM.
	if sp := res.SCZCMaxSpeedup(); sp < 1.8 || sp > 3.5 {
		t.Errorf("Xavier SC/ZC = %.2fx, want ~2.5x", sp)
	}
	if sp := res.UMZCSpeedup(); sp < 1.8 || sp > 5.0 {
		t.Errorf("Xavier UM/ZC = %.2fx, want ~2.6x", sp)
	}
}

func TestMB3TX2ZCLosesOnUncachedPath(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale characterization")
	}
	res, err := mb3On(soc.New(devices.TX2()), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// On TX2 the pinned path throttles the streaming kernel: the device's
	// SC->ZC maximum gain is below 1 (nothing to gain).
	if sp := res.SCZCMaxSpeedup(); sp >= 1 {
		t.Errorf("TX2 SC/ZC = %.2fx, expected ZC to lose on the uncached path", sp)
	}
}

func TestMB3RejectsTinyDataset(t *testing.T) {
	p := TestParams()
	p.MB3Floats = 16
	if _, err := mb3On(soc.New(devices.TX2()), p); err == nil {
		t.Error("tiny dataset accepted")
	}
}

func TestDegenerateSpeedupAccessors(t *testing.T) {
	if (MB1Result{}).ZCSCMaxSpeedup() != 1 {
		t.Error("empty MB1 speedup should be 1")
	}
	low := MB1Result{Rows: []MB1Row{
		{Model: "sc", Throughput: units.GBps},
		{Model: "zc", Throughput: 2 * units.GBps},
	}}
	if low.ZCSCMaxSpeedup() != 1 {
		t.Error("pinned faster than cached should clamp to 1")
	}
	if (MB3Result{}).SCZCMaxSpeedup() != 1 || (MB3Result{}).UMZCSpeedup() != 1 {
		t.Error("empty MB3 ratios should be 1")
	}
	if maxInt64(3, 7) != 7 || maxInt64(7, 3) != 7 {
		t.Error("maxInt64 wrong")
	}
	w := MB3WorkloadForAblation(TestParams())
	if err := w.Validate(); err != nil {
		t.Error(err)
	}
}
