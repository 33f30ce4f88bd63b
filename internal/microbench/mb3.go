package microbench

import (
	"context"
	"fmt"

	"igpucomm/internal/comm"
	"igpucomm/internal/cpu"
	"igpucomm/internal/gpu"
	"igpucomm/internal/isa"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
	"igpucomm/internal/units"
)

// MB3Result reports the third micro-benchmark: a balanced, cache-independent
// CPU+GPU workload run under all three models, with ZC using the fully
// overlapped §III-C pattern. Its headline number is SC/ZC_Max_speedup — the
// most an application can gain on this device by moving from SC to ZC.
type MB3Result struct {
	Platform string
	Floats   int64

	SCTotal units.Latency
	UMTotal units.Latency
	ZCTotal units.Latency

	// Component times of the ZC run (the overlapped pair).
	ZCCPUTime    units.Latency
	ZCKernelTime units.Latency
}

// SCZCMaxSpeedup is the SC-to-ZC runtime ratio (>= values mean ZC wins).
func (r MB3Result) SCZCMaxSpeedup() float64 {
	if r.ZCTotal <= 0 {
		return 1
	}
	return float64(r.SCTotal) / float64(r.ZCTotal)
}

// UMZCSpeedup is the UM-to-ZC runtime ratio.
func (r MB3Result) UMZCSpeedup() float64 {
	if r.ZCTotal <= 0 {
		return 1
	}
	return float64(r.UMTotal) / float64(r.ZCTotal)
}

// mb3Workload: the GPU kernel touches each element exactly once with
// deliberately sparse, non-reusable accesses (maximum miss rate, so GPU
// cache state is irrelevant — selectivity); the CPU performs a comparable
// amount of independent work; the two are overlappable.
func mb3Workload(p Params) comm.Workload {
	n := p.MB3Floats
	size := n * 4
	const lineElems = 16
	return comm.Workload{
		Name: "mb3",
		In:   []comm.BufferSpec{{Name: "data", Size: size}},
		Out:  []comm.BufferSpec{{Name: "result", Size: size}},
		CPUTask: func(c *cpu.CPU, lay comm.Layout) {
			// One strided pass over the data with a modest FP chain per
			// touched line — sized to roughly balance the GPU kernel so
			// the pair can fully overlap ("balanced CPU+iGPU computation").
			base := lay.Addr("data")
			lines := n / lineElems
			for i := int64(0); i < lines; i += 32 {
				c.Load(base+i*64, 4)
				c.Work(isa.FMA, 20)
				c.Store(base+i*64, 4)
			}
		},
		MakeKernel: func(lay comm.Layout, _ int) gpu.Kernel {
			dst := lay.Addr("result")
			src := lay.Addr("data")
			return gpu.Kernel{
				Name:    "mb3-stream",
				Threads: int(n),
				Program: func(tid int, prog *isa.Program) {
					// Single coalesced read and write per element, each
					// line visited exactly once across the whole grid:
					// maximum miss rate, zero cache dependence.
					off := int64(tid) * 4
					prog.Ld(src+off, 4)
					prog.Compute(isa.FMA, 4)
					prog.St(dst+off, 4)
				},
			}
		},
		Overlappable: true,
		Warmup:       0, // nothing to warm: the point is maximum miss rate
	}
}

// MB3 runs the third micro-benchmark alone, as one job.
func MB3(ctx context.Context, platform string, p Params, run Runner) (MB3Result, error) {
	var res MB3Result
	if err := run(ctx, []Job{mb3Job(platform, p, &res)}); err != nil {
		return MB3Result{}, err
	}
	return res, nil
}

// mb3Job returns the job that measures the third micro-benchmark under all
// three models on one platform and fills res.
func mb3Job(platform string, p Params, res *MB3Result) Job {
	return func(ctx context.Context, s *soc.SoC) error {
		if p.MB3Floats < 1024 {
			return fmt.Errorf("mb3: data set %d too small to be meaningful", p.MB3Floats)
		}
		_, span := telemetry.Start(ctx, "mb3", telemetry.String("platform", platform))
		defer span.End()
		w := mb3Workload(p)
		*res = MB3Result{Platform: platform, Floats: p.MB3Floats}

		sc, err := comm.SC{}.Run(s, w)
		if err != nil {
			return fmt.Errorf("mb3 under sc: %w", err)
		}
		res.SCTotal = sc.Total

		um, err := comm.UM{}.Run(s, w)
		if err != nil {
			return fmt.Errorf("mb3 under um: %w", err)
		}
		res.UMTotal = um.Total

		zc, err := comm.ZC{}.Run(s, w)
		if err != nil {
			return fmt.Errorf("mb3 under zc: %w", err)
		}
		res.ZCTotal = zc.Total
		res.ZCCPUTime = zc.CPUTime
		res.ZCKernelTime = zc.KernelTime
		return nil
	}
}

// MB3WorkloadForAblation exposes the third micro-benchmark's workload so
// ablation benchmarks can toggle its overlap flag.
func MB3WorkloadForAblation(p Params) comm.Workload { return mb3Workload(p) }
