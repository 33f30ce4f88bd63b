// Package framework is the paper's decision framework (Fig 2): given a
// profiled application and a characterized device, it classifies the
// application's cache dependence, recommends the most suitable communication
// model, and estimates the potential speedup of switching — the three outputs
// the paper's tuning flow produces for the programmer.
package framework

import (
	"context"
	"fmt"

	"igpucomm/internal/comm"
	"igpucomm/internal/microbench"
	"igpucomm/internal/perfmodel"
	"igpucomm/internal/profile"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
	"igpucomm/internal/units"
)

// Characterization bundles everything the micro-benchmarks extract from a
// device. Produce it once per platform (it is application-independent) and
// reuse it to advise any number of applications.
type Characterization struct {
	Platform   string
	IOCoherent bool

	MB1 microbench.MB1Result
	MB2 microbench.MB2Result
	MB3 microbench.MB3Result

	// Thresholds are the MB2 decision boundaries.
	Thresholds perfmodel.Thresholds
	// PeakGPUThroughput is GPU_Cache_LL_L1^max_throughput (MB1, SC row).
	PeakGPUThroughput units.BytesPerSecond
	// PinnedGPUThroughput is the ZC-path throughput (MB1, ZC row).
	PinnedGPUThroughput units.BytesPerSecond
	// ZCSCMaxSpeedup bounds what leaving ZC can gain (MB1 ratio).
	ZCSCMaxSpeedup float64
	// SCZCMaxSpeedup bounds what adopting ZC can gain (MB3).
	SCZCMaxSpeedup float64
}

// Characterize runs the micro-benchmarks' characterization plan
// (microbench.Characterize) serially on the platform. The execution engine
// (internal/engine) runs the same plan with a Runner that fans each stage
// out across pooled platforms.
func Characterize(ctx context.Context, s *soc.SoC, p microbench.Params) (Characterization, error) {
	ctx, span := telemetry.Start(ctx, "framework.characterize",
		telemetry.String("platform", s.Name()))
	defer span.End()
	res, err := microbench.Characterize(ctx, s.Name(), s.IOCoherent(), p, microbench.Serial(s))
	if err != nil {
		return Characterization{}, fmt.Errorf("framework: %w", err)
	}
	return NewCharacterization(res), nil
}

// NewCharacterization assembles micro-benchmark results into the framework's
// device characterization. It is the single place the derived quantities
// (thresholds, peaks, speedup caps) are computed.
func NewCharacterization(r microbench.Results) Characterization {
	return Characterization{
		Platform:            r.Platform,
		IOCoherent:          r.IOCoherent,
		MB1:                 r.MB1,
		MB2:                 r.MB2,
		MB3:                 r.MB3,
		Thresholds:          r.MB2.Thresholds,
		PeakGPUThroughput:   r.MB1.PeakThroughput(),
		PinnedGPUThroughput: r.MB1.PinnedThroughput(),
		ZCSCMaxSpeedup:      r.MB1.ZCSCMaxSpeedup(),
		SCZCMaxSpeedup:      r.MB3.SCZCMaxSpeedup(),
	}
}

// Zone classifies where the application's GPU cache usage lands on the
// device's Fig 3/6 curve.
type Zone int

// Zones of the second micro-benchmark's curve.
const (
	// ZoneZCSafe: usage below the low threshold — ZC performs on par with
	// SC and saves the copies.
	ZoneZCSafe Zone = iota
	// ZoneZCConditional: the middle zone — ZC costs kernel performance but
	// overlap and copy elimination may still pay for it.
	ZoneZCConditional
	// ZoneCacheDependent: past the high threshold — the GPU would be
	// severely bottlenecked under ZC.
	ZoneCacheDependent
)

func (z Zone) String() string {
	switch z {
	case ZoneZCSafe:
		return "zc-safe"
	case ZoneZCConditional:
		return "zc-conditional"
	case ZoneCacheDependent:
		return "cache-dependent"
	default:
		return fmt.Sprintf("Zone(%d)", int(z))
	}
}

// Recommendation is the framework's verdict for one application on one
// device.
type Recommendation struct {
	Platform     string
	Workload     string
	CurrentModel string

	// Classification inputs.
	CPUUsage     float64
	GPUUsage     float64
	CPUDependent bool
	GPUDependent bool
	Zone         Zone

	// Suggested is the recommended communication model ("sc", "um", "zc").
	Suggested string
	// SpeedupRatio estimates runtime(current)/runtime(suggested); 1.0
	// means no change expected. Capped by the device maxima.
	SpeedupRatio float64
	// EnergyAdvantage notes that the suggestion also eliminates copy
	// traffic (set when suggesting ZC).
	EnergyAdvantage bool
	// Rationale is the human-readable reasoning chain.
	Rationale string
	// BufferHints refines the whole-workload verdict per buffer (mixed-model
	// placement); nil unless the classification run was heat-profiled, so
	// default advice output is unchanged.
	BufferHints []BufferHint `json:"BufferHints,omitempty"`
}

// SpeedupPercent is the paper's percentage convention for the estimate.
func (r Recommendation) SpeedupPercent() float64 { return perfmodel.SpeedupPercent(r.SpeedupRatio) }

// AdviseWorkload profiles the workload serially on s and runs the Fig-2
// decision flow (AdviseOn with microbench.Serial).
func AdviseWorkload(ctx context.Context, char Characterization, s *soc.SoC, w comm.Workload, currentModel string) (Recommendation, error) {
	rec, _, _, err := AdviseOn(ctx, char, w, currentModel, microbench.Serial(s))
	return rec, err
}

// AdviseOn runs the profiling plan through run, then the Fig-2 decision
// flow. It returns the two profiles the recommendation was decided from
// (the same profile twice when the current model is SC), so callers that
// analyse them further need not re-simulate.
func AdviseOn(ctx context.Context, char Characterization, w comm.Workload, currentModel string, run microbench.Runner) (rec Recommendation, classify, current profile.Profile, err error) {
	ctx, span := telemetry.Start(ctx, "framework.advise",
		telemetry.String("platform", char.Platform),
		telemetry.String("workload", w.Name),
		telemetry.String("current", currentModel))
	defer span.End()
	if classify, current, err = profilePlan(ctx, w, currentModel, run); err != nil {
		return rec, classify, current, err
	}
	if rec, err = Advise(char, classify, current, currentModel); err != nil {
		return rec, classify, current, err
	}
	// Heat-profiled classification runs carry per-buffer data; attach the
	// mixed-model hints. Nil otherwise — default output unchanged.
	rec.BufferHints = PerBufferHints(classify.PerBuffer)
	span.SetAttr("suggested", rec.Suggested)
	span.SetAttr("zone", rec.Zone.String())
	return rec, classify, current, nil
}

// profilePlan is the profiling stage of the Fig-2 flow, run through run:
// job 0 profiles the workload under SC for classification — profiling under
// ZC would hide cache demand behind the inflated kernel time — and, unless
// the current model is SC, job 1 profiles it under the current model for
// the switching estimates. Under SC both profiles are the one run.
func profilePlan(ctx context.Context, w comm.Workload, currentModel string, run microbench.Runner) (classify, current profile.Profile, err error) {
	models := []comm.Model{comm.SC{}}
	if currentModel != "sc" {
		m, err := comm.ByName(currentModel)
		if err != nil {
			return classify, current, fmt.Errorf("framework: %w", err)
		}
		models = append(models, m)
	}
	profs := make([]profile.Profile, len(models))
	jobs := make([]microbench.Job, len(models))
	for i, m := range models {
		jobs[i] = func(ctx context.Context, s *soc.SoC) (err error) {
			if profs[i], err = profile.Collect(ctx, s, w, m); err != nil {
				return fmt.Errorf("framework: %s profile: %w", [...]string{"classification", "current-model"}[i], err)
			}
			return nil
		}
	}
	if err := run(ctx, jobs); err != nil {
		return classify, current, err
	}
	return profs[0], profs[len(profs)-1], nil
}

// Advise runs the Fig-2 decision flow. classify must be a caches-on (SC)
// profile of the workload — the source of the cache-usage metrics; current
// must be a profile under currentModel — the source of the timings the
// switching estimates start from. When the current model is SC, pass the
// same profile twice.
func Advise(char Characterization, classify, current profile.Profile, currentModel string) (Recommendation, error) {
	switch currentModel {
	case "sc", "um", "zc":
	default:
		return Recommendation{}, fmt.Errorf("framework: unknown current model %q", currentModel)
	}
	for _, p := range []profile.Profile{classify, current} {
		if p.Platform != char.Platform {
			return Recommendation{}, fmt.Errorf("framework: profile from %q but characterization from %q",
				p.Platform, char.Platform)
		}
	}

	rec := Recommendation{
		Platform:     char.Platform,
		Workload:     classify.Workload,
		CurrentModel: currentModel,
		CPUUsage:     classify.CPUCacheUsagePerInstr,
		GPUUsage:     classify.GPUCacheUsage(char.PeakGPUThroughput),
		SpeedupRatio: 1,
	}
	rec.CPUDependent = rec.CPUUsage > char.Thresholds.CPUCache
	switch {
	case rec.GPUUsage > char.Thresholds.GPUCacheHigh:
		rec.Zone = ZoneCacheDependent
	case rec.GPUUsage > char.Thresholds.GPUCacheLow:
		rec.Zone = ZoneZCConditional
	default:
		rec.Zone = ZoneZCSafe
	}
	rec.GPUDependent = rec.Zone == ZoneCacheDependent

	switch rec.Zone {
	case ZoneCacheDependent:
		adviseCacheDependent(char, classify, current, &rec)
	case ZoneZCConditional:
		adviseConditional(char, classify, current, &rec)
	default:
		adviseGPUSafe(char, classify, current, &rec)
	}
	return rec, nil
}

// adviseCacheDependent: the GPU leans on its cache; ZC would starve it.
func adviseCacheDependent(char Characterization, classify, current profile.Profile, rec *Recommendation) {
	rec.Suggested = "sc"
	if rec.CurrentModel == "zc" {
		rec.Rationale = fmt.Sprintf(
			"GPU cache usage %.1f%% exceeds the device's upper threshold %.1f%%: the kernel is starving on the ZC path; switch to SC/UM",
			rec.GPUUsage*100, char.Thresholds.GPUCacheHigh*100)
		rec.SpeedupRatio = estimateZCToSC(char, classify, current)
		return
	}
	// Already on a copying model: the paper's flow suggests no change and
	// no further potential speedup.
	rec.Suggested = rec.CurrentModel
	rec.Rationale = fmt.Sprintf(
		"GPU cache usage %.1f%% marks the application cache-dependent; the current %s model is already the right choice",
		rec.GPUUsage*100, rec.CurrentModel)
}

// adviseConditional: the middle zone of Figs 3/6 — ZC costs some kernel
// performance but copy elimination and overlap may compensate.
func adviseConditional(char Characterization, classify, current profile.Profile, rec *Recommendation) {
	if rec.CPUDependent && !char.IOCoherent {
		rec.Suggested = "sc"
		if rec.CurrentModel == "zc" {
			rec.SpeedupRatio = estimateZCToSC(char, classify, current)
		} else {
			rec.Suggested = rec.CurrentModel
		}
		rec.Rationale = fmt.Sprintf(
			"GPU cache usage %.1f%% is in the conditional zone but CPU cache usage %.2f%% exceeds the %.2f%% threshold on a non-coherent device: stay on a copying model",
			rec.GPUUsage*100, rec.CPUUsage*100, char.Thresholds.CPUCache*100)
		return
	}
	if rec.CurrentModel == "zc" {
		rec.Suggested = "zc"
		rec.Rationale = fmt.Sprintf(
			"GPU cache usage %.1f%% sits in the conditional zone [%.1f%%, %.1f%%]: ZC remains viable; the kernel slowdown is compensated by eliminated transfers and overlap",
			rec.GPUUsage*100, char.Thresholds.GPUCacheLow*100, char.Thresholds.GPUCacheHigh*100)
		rec.EnergyAdvantage = true
		return
	}
	// Currently copying: ZC may pay off if the copy+overlap gain covers
	// the kernel penalty; estimate both sides.
	gain := estimateSCToZC(char, current)
	penalty := kernelPenaltyUnderZC(char, classify)
	rec.SpeedupRatio = gain / penalty
	if rec.SpeedupRatio >= 1 {
		rec.Suggested = "zc"
		rec.EnergyAdvantage = true
		rec.Rationale = fmt.Sprintf(
			"conditional zone: estimated transfer/overlap gain %.2fx outweighs the ZC kernel penalty %.2fx",
			gain, penalty)
	} else {
		rec.Suggested = rec.CurrentModel
		rec.SpeedupRatio = 1
		rec.Rationale = fmt.Sprintf(
			"conditional zone: estimated ZC kernel penalty %.2fx exceeds the transfer/overlap gain %.2fx; keep %s",
			penalty, gain, rec.CurrentModel)
	}
}

// adviseGPUSafe: the GPU barely uses its cache; the CPU side decides.
func adviseGPUSafe(char Characterization, classify, current profile.Profile, rec *Recommendation) {
	if rec.CPUDependent && !char.IOCoherent {
		rec.Suggested = "sc"
		if rec.CurrentModel == "zc" {
			rec.SpeedupRatio = estimateZCToSC(char, classify, current)
			rec.Rationale = fmt.Sprintf(
				"CPU cache usage %.2f%% exceeds the %.2f%% threshold and the device has no I/O coherence: ZC uncaches the CPU's working set; switch to SC/UM",
				rec.CPUUsage*100, char.Thresholds.CPUCache*100)
		} else {
			rec.Suggested = rec.CurrentModel
			rec.Rationale = fmt.Sprintf(
				"CPU cache usage %.2f%% exceeds the %.2f%% threshold on a non-coherent device: the current %s model is the right choice",
				rec.CPUUsage*100, char.Thresholds.CPUCache*100, rec.CurrentModel)
		}
		return
	}
	rec.Suggested = "zc"
	rec.EnergyAdvantage = true
	if rec.CurrentModel == "zc" {
		rec.Rationale = "cache usage is low on both sides: ZC is already optimal (and saves transfer energy)"
		return
	}
	sp := estimateSCToZC(char, current)
	rec.SpeedupRatio = sp
	rec.Rationale = fmt.Sprintf(
		"cache usage is low on both sides (CPU %.2f%%, GPU %.1f%%): ZC eliminates %v of copy time per iteration; eqn 3 estimates up to %.0f%% speedup",
		rec.CPUUsage*100, rec.GPUUsage*100, current.Report.CopyTime.Duration(), perfmodel.SpeedupPercent(sp))
}

// estimateZCToSC prices leaving zero-copy: the kernel recovers by up to the
// cached/pinned throughput ratio, but the copies and serialization come back
// (eqn 4's structure), all bounded by the device maximum.
func estimateZCToSC(char Characterization, classify, current profile.Profile) float64 {
	gain := perfmodel.KernelGainZCToSC(classify.GPUDemand, char.PinnedGPUThroughput, char.ZCSCMaxSpeedup)
	estKernel := float64(current.KernelTime) / gain
	estCopies := copyEstimate(char, current)
	estSC := float64(current.CPUTime)/cpuUncacheFactor(char) + estKernel + estCopies
	if estSC <= 0 {
		return 1
	}
	sp := float64(current.Total) / estSC
	if sp > char.ZCSCMaxSpeedup && char.ZCSCMaxSpeedup > 0 {
		sp = char.ZCSCMaxSpeedup
	}
	return sp
}

// estimateSCToZC prices adopting zero-copy. For overlappable workloads it
// is eqn 3 (copy elimination + task overlap) with the device cap; for
// serialized workloads only the copy and flush elimination counts — eqn 3's
// overlap credit does not apply.
func estimateSCToZC(char Characterization, prof profile.Profile) float64 {
	if prof.Report.OverlapCapable {
		sp, err := perfmodel.SCToZC(perfmodel.Inputs{
			Runtime:  prof.Total,
			CopyTime: prof.Report.CopyTime,
			CPUTime:  prof.CPUTime,
			GPUTime:  prof.KernelTime,
		}, char.SCZCMaxSpeedup)
		if err != nil {
			return 1
		}
		return sp
	}
	saved := prof.Report.CopyTime + prof.Report.FlushTime
	if saved >= prof.Total {
		return 1
	}
	sp := float64(prof.Total) / float64(prof.Total-saved)
	if char.SCZCMaxSpeedup > 0 && sp > char.SCZCMaxSpeedup {
		sp = char.SCZCMaxSpeedup
	}
	return sp
}

// kernelPenaltyUnderZC estimates how much slower the kernel runs on the
// pinned path: demand over pinned throughput, at least 1.
func kernelPenaltyUnderZC(char Characterization, prof profile.Profile) float64 {
	if char.PinnedGPUThroughput <= 0 || prof.GPUDemand <= 0 {
		return 1
	}
	p := float64(prof.GPUDemand) / float64(char.PinnedGPUThroughput)
	if p < 1 {
		return 1
	}
	return p
}

// copyEstimate prices the explicit transfers SC would need, using the MB3
// characterization's effective copy throughput.
func copyEstimate(char Characterization, prof profile.Profile) float64 {
	bytes := prof.Report.DeclaredBytesIn + prof.Report.DeclaredBytesOut
	if bytes <= 0 {
		return 0
	}
	// The MB1 ZC/SC rows do not expose copy bandwidth directly; approximate
	// with the DRAM-bound pinned ceiling's counterpart: assume copies move
	// at the device's peak GPU DRAM throughput / 2 (read+write).
	bw := float64(char.PeakGPUThroughput) / 4
	if bw <= 0 {
		return 0
	}
	return float64(bytes) / bw * 1e9
}

// cpuUncacheFactor estimates how much faster the CPU task becomes when its
// buffers are cacheable again (only relevant leaving ZC on a non-coherent
// device). Without a direct measurement we use the MB1 CPU rows' ratio.
func cpuUncacheFactor(char Characterization) float64 {
	if char.IOCoherent {
		return 1
	}
	zc, okZC := char.MB1.Row("zc")
	sc, okSC := char.MB1.Row("sc")
	if !okZC || !okSC || sc.CPUTime <= 0 {
		return 1
	}
	f := float64(zc.CPUTime) / float64(sc.CPUTime)
	if f < 1 {
		return 1
	}
	return f
}

// String summarizes the recommendation for logs and CLIs.
func (r Recommendation) String() string {
	return fmt.Sprintf("%s/%s: %s -> %s (%+.1f%%, zone %v, cpu %.2f%%, gpu %.1f%%)",
		r.Platform, r.Workload, r.CurrentModel, r.Suggested,
		r.SpeedupPercent(), r.Zone, r.CPUUsage*100, r.GPUUsage*100)
}
