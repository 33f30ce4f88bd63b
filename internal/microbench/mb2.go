package microbench

import (
	"context"
	"fmt"
	"strconv"

	"igpucomm/internal/comm"
	"igpucomm/internal/cpu"
	"igpucomm/internal/gpu"
	"igpucomm/internal/isa"
	"igpucomm/internal/perfmodel"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
	"igpucomm/internal/units"
)

// mb2ComparableTol is the relative gap below which two model runtimes count
// as "comparable" (the flat zone of Figs 3 and 6).
const mb2ComparableTol = 0.10

// mb2SecondZoneRatio bounds the middle zone: beyond a ZC/SC runtime ratio of
// 3 (a 200% difference, the paper's Fig 3 annotation) ZC is discouraged
// outright.
const mb2SecondZoneRatio = 3.0

// MB2GPUPoint is one density step of the GPU sweep.
type MB2GPUPoint struct {
	Fraction   float64 // memory ops per instruction
	SCKernel   units.Latency
	ZCKernel   units.Latency
	SCDemand   units.BytesPerSecond // LL-L1 demand throughput under SC
	CacheUsage float64              // SCDemand / device peak (eqn 2 form)
}

// MB2CPUPoint is one density step of the CPU sweep.
type MB2CPUPoint struct {
	Fraction   float64
	Cached     units.Latency // CPU routine over cacheable memory
	Uncached   units.Latency // same routine over a pinned (ZC) mapping
	CacheUsage float64       // instruction-normalized eqn 1
}

// MB2Result carries both sweeps and the thresholds extracted from them.
type MB2Result struct {
	Platform   string
	GPU        []MB2GPUPoint
	CPU        []MB2CPUPoint
	Thresholds perfmodel.Thresholds
}

// MB2 runs the second micro-benchmark: the GPU sweep points, then the CPU
// sweep points, one job each. peak is the device's cached GPU LL-L1 peak
// throughput from MB1, which expresses the thresholds as cache-usage
// percentages; ioCoherent decides whether a CPU knee exists at all.
func MB2(ctx context.Context, platform string, ioCoherent bool, p Params, peak units.BytesPerSecond, run Runner) (MB2Result, error) {
	if peak <= 0 {
		return MB2Result{}, fmt.Errorf("mb2: need a positive peak throughput from mb1")
	}
	nf := len(p.MB2Fractions)
	res := MB2Result{Platform: platform, GPU: make([]MB2GPUPoint, nf), CPU: make([]MB2CPUPoint, nf)}
	jobs := make([]Job, 2*nf)
	for i, f := range p.MB2Fractions {
		if f <= 0 || f > 1 {
			return MB2Result{}, fmt.Errorf("mb2: fraction %v out of (0,1]", f)
		}
		attr := telemetry.String("fraction", strconv.FormatFloat(f, 'g', -1, 64))
		jobs[i] = func(ctx context.Context, s *soc.SoC) (err error) {
			_, span := telemetry.Start(ctx, "mb2.gpu.point", attr)
			defer span.End()
			res.GPU[i], err = mb2GPUPoint(s, p, f, peak)
			return err
		}
		jobs[nf+i] = func(ctx context.Context, s *soc.SoC) error {
			_, span := telemetry.Start(ctx, "mb2.cpu.point", attr)
			defer span.End()
			res.CPU[i] = mb2CPUPoint(s, p, f)
			return nil
		}
	}
	if err := run(ctx, jobs); err != nil {
		return MB2Result{}, err
	}
	res.Thresholds = extractThresholds(ioCoherent, res)
	if err := res.Thresholds.Validate(); err != nil {
		return MB2Result{}, fmt.Errorf("mb2: %w", err)
	}
	return res, nil
}

// mb2GPUWorkload: each thread runs a fixed op budget; a fraction f of the
// budget is ld.global/st.global pairs over a fixed 1 MiB array (linear,
// coalesced), the rest is fma.rn on locally computed values.
func mb2GPUWorkload(p Params, f float64) comm.Workload {
	const arrayBytes = 1 * units.MiB
	events := int(f * float64(p.MB2OpsPerThread) / 2)
	if events < 1 {
		events = 1
	}
	fmas := p.MB2OpsPerThread - 2*events
	if fmas < 0 {
		fmas = 0
	}
	return comm.Workload{
		Name: fmt.Sprintf("mb2-f%g", f),
		Key:  fmt.Sprintf("%+v", p),
		In:   []comm.BufferSpec{{Name: "array", Size: arrayBytes}},
		Out:  []comm.BufferSpec{{Name: "sink", Size: 4096}},
		CPUTask: func(c *cpu.CPU, lay comm.Layout) {
			c.Work(isa.FMA, 1) // negligible; MB2's subject is the kernel
		},
		MakeKernel: func(lay comm.Layout, _ int) gpu.Kernel {
			array := lay.Addr("array")
			elems := int64(arrayBytes / 4)
			threads := p.MB2Threads
			perEvent := fmas / events
			extra := fmas - perEvent*events
			// Affine only when threads divides elems: then k*threads mod
			// elems is a multiple of threads, and adding tid < threads
			// never wraps, so every address is thread 0's plus tid*4.
			var stride int64
			if elems%int64(threads) == 0 {
				stride = 4
			}
			return gpu.Kernel{
				Name:    "mb2-sweep",
				Threads: threads,
				Program: func(tid int, prog *isa.Program) {
					for k := 0; k < events; k++ {
						idx := (int64(tid) + int64(k)*int64(threads)) % elems
						prog.Ld(array+idx*4, 4)
						prog.St(array+idx*4, 4)
						prog.Compute(isa.FMA, perEvent)
					}
					prog.Compute(isa.FMA, extra)
				},
				Stride: stride,
			}
		},
		Warmup: p.Warmup,
	}
}

func mb2GPUPoint(s *soc.SoC, p Params, f float64, peak units.BytesPerSecond) (MB2GPUPoint, error) {
	w := mb2GPUWorkload(p, f)
	sc, err := comm.SC{}.Run(s, w)
	if err != nil {
		return MB2GPUPoint{}, fmt.Errorf("mb2 f=%g under sc: %w", f, err)
	}
	zc, err := comm.ZC{}.Run(s, w)
	if err != nil {
		return MB2GPUPoint{}, fmt.Errorf("mb2 f=%g under zc: %w", f, err)
	}
	pt := MB2GPUPoint{
		Fraction: f,
		SCKernel: sc.KernelTime,
		ZCKernel: zc.KernelTime,
	}
	if sc.KernelTime > 0 {
		demand := float64(sc.GPU.TransactionBytes) * (1 - sc.GPU.L1.HitRate())
		pt.SCDemand = units.BytesPerSecond(demand / sc.KernelTime.Seconds())
		pt.CacheUsage = float64(pt.SCDemand) / float64(peak)
	}
	return pt, nil
}

// mb2CPUPoint measures the CPU routine at density f over a 256 KiB working
// set (LLC-resident, L1-thrashing) on the cacheable path and on the pinned
// path, and evaluates the instruction-normalized cache usage.
func mb2CPUPoint(s *soc.SoC, p Params, f float64) MB2CPUPoint {
	const wsBytes = 256 * units.KiB

	run := func(pinned bool) (units.Latency, int64, float64, int64) {
		s.ResetState()
		var base int64
		if pinned {
			b, err := s.AllocPinned("mb2cpu", wsBytes)
			if err != nil {
				panic(err) // sizes are static; failure is a bug
			}
			base = b.Addr
		} else {
			b, err := s.AllocHost("mb2cpu", wsBytes)
			if err != nil {
				panic(err)
			}
			base = b.Addr
		}
		defer func() { _ = s.Free("mb2cpu") }()

		c := s.CPU
		events := int(f * float64(p.MB2CPUInstrs) / 2)
		if events < 1 {
			events = 1
		}
		fill := (p.MB2CPUInstrs - 2*events) / events
		loop := func() {
			for k := 0; k < events; k++ {
				addr := base + int64(k)*64%wsBytes
				c.Load(addr, 4)
				c.Store(addr, 4)
				c.Work(isa.FMA, fill)
			}
		}
		loop() // warmup
		l1Before := c.L1().Stats()
		llcBefore := c.LLC().Stats()
		instrBefore := c.Instructions()
		start := c.Elapsed()
		loop()
		elapsed := c.Elapsed() - start
		l1 := c.L1().Stats()
		llc := c.LLC().Stats()
		misses := l1.Misses() - l1Before.Misses()
		llcMiss := 0.0
		if d := llc.Accesses() - llcBefore.Accesses(); d > 0 {
			llcMiss = float64(llc.Misses()-llcBefore.Misses()) / float64(d)
		}
		return elapsed, misses, llcMiss, c.Instructions() - instrBefore
	}

	cached, misses, llcMiss, instrs := run(false)
	uncached, _, _, _ := run(true)
	return MB2CPUPoint{
		Fraction:   f,
		Cached:     cached,
		Uncached:   uncached,
		CacheUsage: perfmodel.CPUCacheUsagePerInstr(misses, llcMiss, instrs),
	}
}

// extractThresholds locates the knees of both sweeps.
func extractThresholds(ioCoherent bool, res MB2Result) perfmodel.Thresholds {
	th := perfmodel.Thresholds{CPUCache: 1.0} // "never" unless a knee exists

	// GPU: the low threshold is the last density where ZC stays comparable
	// to SC; the high threshold is the last density where the gap stays
	// under the second-zone ratio.
	lowSet := false
	for _, pt := range res.GPU {
		if pt.SCKernel <= 0 {
			continue
		}
		ratio := float64(pt.ZCKernel) / float64(pt.SCKernel)
		if ratio <= 1+mb2ComparableTol {
			th.GPUCacheLow = pt.CacheUsage
			lowSet = true
		}
		if ratio <= mb2SecondZoneRatio {
			th.GPUCacheHigh = pt.CacheUsage
		}
	}
	if !lowSet && len(res.GPU) > 0 {
		th.GPUCacheLow = res.GPU[0].CacheUsage
	}
	if th.GPUCacheHigh < th.GPUCacheLow {
		th.GPUCacheHigh = th.GPUCacheLow
	}

	// CPU: on I/O-coherent platforms the CPU keeps its caches under ZC, so
	// there is no knee (threshold 100%). Otherwise the threshold is the
	// usage at the last comparable density.
	if !ioCoherent {
		found := false
		for _, pt := range res.CPU {
			if pt.Cached <= 0 {
				continue
			}
			ratio := float64(pt.Uncached) / float64(pt.Cached)
			if ratio <= 1+mb2ComparableTol {
				th.CPUCache = pt.CacheUsage
				found = true
			}
		}
		if !found && len(res.CPU) > 0 {
			th.CPUCache = res.CPU[0].CacheUsage
		}
	}
	return th
}
