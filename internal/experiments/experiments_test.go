package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
)

// sharedCtx characterizes each device once for the whole test binary; the
// full-scale experiments are the expensive part of this package.
var (
	ctxOnce sync.Once
	ctx     *Context
)

func testCtx(t *testing.T) *Context {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale experiment")
	}
	ctxOnce.Do(func() {
		ctx = NewContext(microbench.DefaultParams())
		if err := ctx.Prewarm(context.Background(), devices.NanoName, devices.TX2Name, devices.XavierName); err != nil {
			panic(err)
		}
	})
	return ctx
}

func TestTable1Shape(t *testing.T) {
	c := testCtx(t)
	tab, data, err := Table1(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// E1 criteria: ZC << SC ~ UM; TX2 gap ~77x, Xavier ~7x.
	tx2Gap := data.SC[devices.TX2Name] / data.ZC[devices.TX2Name]
	if tx2Gap < 50 || tx2Gap > 100 {
		t.Errorf("TX2 SC/ZC throughput gap = %.1fx, want ~77x", tx2Gap)
	}
	xGap := data.SC[devices.XavierName] / data.ZC[devices.XavierName]
	if xGap < 4 || xGap > 10 {
		t.Errorf("Xavier gap = %.1fx, want ~7x", xGap)
	}
	for _, board := range []string{devices.TX2Name, devices.XavierName} {
		umDelta := data.UM[board]/data.SC[board] - 1
		if umDelta < -0.12 || umDelta > 0.12 {
			t.Errorf("%s UM deviates %.1f%% from SC, want within the ±8%%-ish band", board, umDelta*100)
		}
	}
	if !strings.Contains(tab.String(), "Zero Copy") {
		t.Error("table rendering broken")
	}
}

func TestFig5Shape(t *testing.T) {
	c := testCtx(t)
	_, data, err := Fig5(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// E2: TX2/Nano ZC hurts both CPU and GPU; Xavier only the GPU.
	for _, board := range []string{devices.NanoName, devices.TX2Name} {
		if data.CPU[board]["zc"] <= data.CPU[board]["sc"]*1.2 {
			t.Errorf("%s: ZC CPU time should be clearly above SC", board)
		}
		if data.GPU[board]["zc"] <= data.GPU[board]["sc"]*5 {
			t.Errorf("%s: ZC kernel should be dramatically above SC", board)
		}
	}
	x := devices.XavierName
	if data.CPU[x]["zc"] > data.CPU[x]["sc"]*1.02 {
		t.Errorf("Xavier ZC CPU %.1f should match SC %.1f (I/O coherence)", data.CPU[x]["zc"], data.CPU[x]["sc"])
	}
	ratio := data.GPU[x]["zc"] / data.GPU[x]["sc"]
	if ratio < 2 || ratio > 10 {
		t.Errorf("Xavier ZC kernel penalty = %.1fx, want limited (paper ~3.7x)", ratio)
	}
}

func TestFig3And6Shape(t *testing.T) {
	c := testCtx(t)
	_, xavier, err := Fig3(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	_, tx2, err := Fig6(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// E3/E4: flat zone then widening gap; Xavier's thresholds far above TX2's.
	if xavier.ThresholdLow <= 2*tx2.ThresholdLow {
		t.Errorf("Xavier low threshold %.3f not clearly above TX2 %.3f",
			xavier.ThresholdLow, tx2.ThresholdLow)
	}
	if xavier.ThresholdHi <= xavier.ThresholdLow {
		t.Error("Xavier should have a usable middle zone")
	}
	// The first sweep point must be comparable (ratio ~1) on Xavier and the
	// last point strongly divergent on both boards.
	firstX := xavier.MB2.GPU[0]
	if r := float64(firstX.ZCKernel) / float64(firstX.SCKernel); r > 1.05 {
		t.Errorf("Xavier flat zone missing: first-point ratio %.2f", r)
	}
	lastT := tx2.MB2.GPU[len(tx2.MB2.GPU)-1]
	if r := float64(lastT.ZCKernel) / float64(lastT.SCKernel); r < 5 {
		t.Errorf("TX2 divergence too weak at max density: %.1fx", r)
	}
}

func TestFig7Shape(t *testing.T) {
	c := testCtx(t)
	_, data, err := Fig7(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// E5: on the I/O-coherent board ZC wins strongly (paper: up to 152%/164%).
	if data.SCZC[devices.XavierName] < 1.8 {
		t.Errorf("Xavier SC/ZC = %.2fx, want ~2.5x", data.SCZC[devices.XavierName])
	}
	if data.UMZC[devices.XavierName] < 1.8 {
		t.Errorf("Xavier UM/ZC = %.2fx, want ~2.6x", data.UMZC[devices.XavierName])
	}
	// On the uncached-pinned boards, the streaming kernel makes ZC lose.
	if data.SCZC[devices.TX2Name] >= 1 {
		t.Errorf("TX2 SC/ZC = %.2fx, expected ZC to lose", data.SCZC[devices.TX2Name])
	}
}

func TestTable2Shape(t *testing.T) {
	c := testCtx(t)
	_, data, err := Table2(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// E6: SC/UM recommended on Nano+TX2, ZC on Xavier with a positive estimate.
	for _, board := range []string{devices.NanoName, devices.TX2Name} {
		row := data.Rows[board]
		if row.Suggested == "zc" {
			t.Errorf("%s: framework suggested ZC for the CPU-cache-dependent app", board)
		}
	}
	x := data.Rows[devices.XavierName]
	if x.Suggested != "zc" {
		t.Errorf("Xavier suggestion = %q, want zc (paper: +69%% estimate)", x.Suggested)
	}
	if x.PredictedPct < 10 || x.PredictedPct > 120 {
		t.Errorf("Xavier predicted speedup = %.1f%%, want meaningfully positive", x.PredictedPct)
	}
	// CPU usage is the discriminator on the non-coherent boards.
	if data.Rows[devices.TX2Name].CPUUsage <= data.Rows[devices.TX2Name].CPUThreshold {
		t.Error("TX2 CPU usage should exceed its threshold")
	}
	// Kernel time ordering follows device capability: Nano > TX2 > Xavier.
	if !(data.Rows[devices.NanoName].KernelTimePerUS > data.Rows[devices.TX2Name].KernelTimePerUS &&
		data.Rows[devices.TX2Name].KernelTimePerUS > data.Rows[devices.XavierName].KernelTimePerUS) {
		t.Error("kernel times not ordered Nano > TX2 > Xavier")
	}
}

func TestTable3Shape(t *testing.T) {
	c := testCtx(t)
	_, data, err := Table3(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// E7: ZC loses on Nano and TX2, wins on Xavier (paper: -67%, -5%, +38%).
	for _, board := range []string{devices.NanoName, devices.TX2Name} {
		if data.Runs[board]["zc"].TotalUS <= data.Runs[board]["sc"].TotalUS {
			t.Errorf("%s: ZC should lose to SC", board)
		}
	}
	x := data.Runs[devices.XavierName]
	if x["zc"].TotalUS >= x["sc"].TotalUS {
		t.Error("Xavier: ZC should beat SC")
	}
	// UM stays within a modest band of SC everywhere.
	for board, runs := range data.Runs {
		delta := runs["um"].TotalUS/runs["sc"].TotalUS - 1
		if delta < -0.35 || delta > 0.35 {
			t.Errorf("%s: UM deviates %.0f%% from SC", board, delta*100)
		}
	}
	// Kernel-time paper anchors (±40%): Nano 453.5µs, TX2 175.2, Xavier 41.2.
	anchors := map[string]float64{
		devices.NanoName:   453.5,
		devices.TX2Name:    175.2,
		devices.XavierName: 41.2,
	}
	for board, want := range anchors {
		got := data.Runs[board]["sc"].KernelPerUS
		if got < want*0.6 || got > want*1.4 {
			t.Errorf("%s SC kernel = %.1fµs, want within 40%% of paper's %.1f", board, got, want)
		}
	}
	// Energy: switching to ZC on Xavier saves joules at 30 Hz.
	if data.EnergySavingJPerS[devices.XavierName] <= 0 {
		t.Error("Xavier SC->ZC energy saving should be positive")
	}
}

func TestTable4Shape(t *testing.T) {
	c := testCtx(t)
	_, data, err := Table4(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// E8: GPU-cache-dependent on TX2; Xavier in the middle zone; CPU usage ~0.
	tx2 := data.Rows[devices.TX2Name]
	if tx2.GPUUsage <= tx2.GPUThresholdHi {
		t.Errorf("TX2 GPU usage %.3f should exceed the high threshold %.3f", tx2.GPUUsage, tx2.GPUThresholdHi)
	}
	if tx2.CPUUsage > 0.02 {
		t.Errorf("TX2 CPU usage = %.3f, want ~0 (paper: 0)", tx2.CPUUsage)
	}
	x := data.Rows[devices.XavierName]
	if x.GPUUsage <= x.GPUThresholdLo || x.GPUUsage > x.GPUThresholdHi {
		t.Errorf("Xavier GPU usage %.3f should sit in the middle zone [%.3f, %.3f]",
			x.GPUUsage, x.GPUThresholdLo, x.GPUThresholdHi)
	}
	// The framework keeps ZC viable on Xavier, with a small positive estimate
	// (paper: up to 5.9%).
	if x.Suggested != "zc" {
		t.Errorf("Xavier suggestion = %q, want zc", x.Suggested)
	}
	if x.PredictedPct < 0 || x.PredictedPct > 30 {
		t.Errorf("Xavier predicted speedup = %.1f%%, want small positive (paper 5.9%%)", x.PredictedPct)
	}
}

func TestTable5Shape(t *testing.T) {
	c := testCtx(t)
	_, data, err := Table5(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// E9: TX2 ZC catastrophic (paper -744% => ~7.4x slower), Xavier ~0%.
	tx2 := data.Runs[devices.TX2Name]
	slowdown := tx2["zc"].TotalUS / tx2["sc"].TotalUS
	if slowdown < 4 || slowdown > 12 {
		t.Errorf("TX2 ZC slowdown = %.1fx, want ~7x", slowdown)
	}
	x := data.Runs[devices.XavierName]
	delta := x["zc"].TotalUS/x["sc"].TotalUS - 1
	if delta < -0.15 || delta > 0.15 {
		t.Errorf("Xavier ZC delta = %.0f%%, want ~0%%", delta*100)
	}
	// Xavier saves energy by dropping the copies even at equal runtime.
	if data.EnergySavingJPerS[devices.XavierName] <= 0 {
		t.Error("Xavier ZC energy saving should be positive")
	}
}

func TestContextCachesCharacterizations(t *testing.T) {
	c := testCtx(t)
	a, err := c.Char(context.Background(), devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Char(context.Background(), devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakGPUThroughput != b.PeakGPUThroughput {
		t.Error("characterization not cached")
	}
	if _, err := c.Char(context.Background(), "no-such-board"); err == nil {
		t.Error("unknown board accepted")
	}
}

func TestTableAsyncShape(t *testing.T) {
	c := testCtx(t)
	_, data, err := TableAsync(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for board, apps := range data.Totals {
		for app, totals := range apps {
			// Pipelining copies can only help.
			if totals["sc-async"] > totals["sc"]*1.01 {
				t.Errorf("%s/%s: sc-async %v slower than sc %v", board, app, totals["sc-async"], totals["sc"])
			}
		}
	}
	// Where ZC collapses (TX2/orbslam), sc-async must remain the sane choice.
	tx2 := data.Totals[devices.TX2Name]["orbslam"]
	if tx2["sc-async"] >= tx2["zc"] {
		t.Error("TX2 orbslam: sc-async should beat the collapsed ZC")
	}
}

func TestTableEnergyShape(t *testing.T) {
	c := testCtx(t)
	_, data, err := TableEnergy(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// Where ZC wins or ties (Xavier), dropping the copies saves energy.
	for _, app := range []string{"shwfs", "orbslam"} {
		if data.BestModelSavingJPerS[devices.XavierName][app] <= 0 {
			t.Errorf("Xavier/%s: expected positive SC->ZC energy saving", app)
		}
	}
	// Per-frame energy is positive under every model.
	for board, apps := range data.JoulesPerFrame {
		for app, frames := range apps {
			for model, j := range frames {
				if j <= 0 {
					t.Errorf("%s/%s/%s: non-positive energy %v", board, app, model, j)
				}
			}
		}
	}
}

func TestTableRealtimeShape(t *testing.T) {
	c := testCtx(t)
	_, data, err := TableRealtime(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// The 1 kHz AO loop: Nano cannot hold it under any model; TX2 holds it
	// under SC but not under ZC; Xavier holds it under both.
	if data.Stats[devices.NanoName]["shwfs"]["sc"].Sustainable {
		t.Error("Nano should not sustain the 1 kHz AO loop even under SC")
	}
	tx2 := data.Stats[devices.TX2Name]["shwfs"]
	if !tx2["sc"].Sustainable {
		t.Error("TX2 should sustain the AO loop under SC")
	}
	if tx2["zc"].Sustainable {
		t.Error("TX2 should lose the AO loop under ZC (uncached CPU path)")
	}
	x := data.Stats[devices.XavierName]["shwfs"]
	if !x["sc"].Sustainable || !x["zc"].Sustainable {
		t.Error("Xavier should sustain the AO loop under both models")
	}
	// ZC buys Xavier headroom: lower utilization than SC.
	if x["zc"].Utilization >= x["sc"].Utilization {
		t.Error("Xavier ZC should lower the AO loop utilization")
	}
	// The 30 Hz camera is easy at this scale for every surviving pair.
	for board, apps := range data.Stats {
		if st, ok := apps["orbslam"]; ok {
			if !st["sc"].Sustainable {
				t.Errorf("%s: ORB at 30 Hz should be sustainable under SC", board)
			}
		}
	}
	if _, ok := data.Stats[devices.NanoName]["orbslam"]; ok {
		t.Error("Nano ORB row should be omitted, as in the paper")
	}
}

// TestQuickContextSmoke keeps a fast path through every artifact exercised
// even under -short (the shape assertions above need full scale).
func TestQuickContextSmoke(t *testing.T) {
	c := NewContext(microbench.TestParams())
	if _, _, err := Table1(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Fig5(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Fig7(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	tab, _, err := Table2(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Errorf("table2 rows = %d", len(tab.Rows))
	}
}

func TestPrewarmParallel(t *testing.T) {
	c := NewContext(microbench.TestParams())
	if err := c.Prewarm(context.Background(), devices.NanoName, devices.TX2Name, devices.XavierName); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{devices.NanoName, devices.TX2Name, devices.XavierName} {
		char, err := c.Char(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if char.Platform != name {
			t.Errorf("prewarmed %q as %q", name, char.Platform)
		}
	}
	// Idempotent, and unknown names fail.
	if err := c.Prewarm(context.Background(), devices.TX2Name); err != nil {
		t.Error(err)
	}
	if err := c.Prewarm(context.Background(), "jetson-bogus"); err == nil {
		t.Error("unknown platform prewarmed")
	}
}

// failModel is a model whose every run fails.
type failModel struct{}

func (failModel) Name() string { return "fail" }

func (failModel) Run(*soc.SoC, comm.Workload) (comm.Report, error) {
	return comm.Report{}, errors.New("fail failed")
}

// TestRunModelsErrorPrefix: a failed model run surfaces as an experiments
// error naming the workload, the board and the model.
func TestRunModelsErrorPrefix(t *testing.T) {
	w, err := catalog.ByName("shwfs", catalog.Micro)
	if err != nil {
		t.Fatal(err)
	}
	c := NewContext(microbench.TestParams())
	_, err = c.runModels(devices.TX2Name, w, []comm.Model{comm.SC{}, failModel{}})
	if err == nil || !strings.HasPrefix(err.Error(), "experiments: "+w.Name+" on "+devices.TX2Name+": ") ||
		!strings.Contains(err.Error(), "explore fail: fail failed") {
		t.Errorf("err = %v", err)
	}
}
