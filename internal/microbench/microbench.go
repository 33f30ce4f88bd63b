// Package microbench implements the paper's three device-characterization
// micro-benchmarks (§III-B). They satisfy the four stated properties:
//
//   - Stressing capability: workloads run to cache steady state (warmup
//     iterations) and are large enough to saturate the component under test.
//   - Workload variability: MB2 sweeps memory-access density over three
//     orders of magnitude.
//   - Selectivity: MB1 isolates the GPU LL-L1 cache; the CPU side of MB1 and
//     the CPU sweep of MB2 isolate the CPU cache path; MB3 is built to be
//     cache-independent (maximum miss rate) so only the communication and
//     overlap machinery matters.
//   - Portability: everything is expressed against the abstract SoC model,
//     parameterized purely by the device catalog.
//
// Outputs:
//
//	MB1 -> peak GPU LL-L1 throughput per communication model (Table I,
//	       Fig 5) and ZC/SC_Max_speedup (the cached/pinned ratio).
//	MB2 -> GPU and CPU cache thresholds (Figs 3 and 6).
//	MB3 -> SC/ZC_Max_speedup from a fully-overlapped balanced workload
//	       (Fig 7).
package microbench

import (
	"fmt"

	"igpucomm/internal/comm"
	"igpucomm/internal/cpu"
	"igpucomm/internal/gpu"
	"igpucomm/internal/isa"
	"igpucomm/internal/units"
)

// Params tunes the micro-benchmark workload sizes. Defaults reproduce the
// paper's characterization at simulation-friendly scale; tests shrink them.
type Params struct {
	// MB1MatrixBytes is the matrix the first micro-benchmark reduces; it
	// should fit the GPU LLC so the cached models measure cache throughput.
	MB1MatrixBytes int64
	// MB1Passes is how many reduction passes run per kernel (reuse factor).
	MB1Passes int
	// MB1CPUOps is the iteration count of the CPU single-address FP loop.
	MB1CPUOps int
	// MB2Threads is the GPU thread count per sweep point.
	MB2Threads int
	// MB2OpsPerThread is the fixed per-thread instruction budget.
	MB2OpsPerThread int
	// MB2Fractions is the sweep of memory-ops-per-instruction densities.
	MB2Fractions []float64
	// MB2CPUInstrs is the CPU-side sweep's instruction budget.
	MB2CPUInstrs int
	// MB3Floats is the element count of the third benchmark's data set
	// (the paper uses 2^27; the default scales down, same behaviour).
	MB3Floats int64
	// Warmup iterations before measurement.
	Warmup int
}

// DefaultParams returns the standard characterization scale.
func DefaultParams() Params {
	return Params{
		MB1MatrixBytes:  192 * units.KiB,
		MB1Passes:       8,
		MB1CPUOps:       4096,
		MB2Threads:      2048,
		MB2OpsPerThread: 2048,
		MB2Fractions: []float64{
			1.0 / 16384, 1.0 / 8192, 1.0 / 4096, 1.0 / 2048, 1.0 / 1024,
			1.0 / 512, 1.0 / 256, 1.0 / 128, 1.0 / 64, 1.5 / 64,
			1.0 / 32, 1.5 / 32, 1.0 / 16, 1.5 / 16, 1.0 / 8, 1.5 / 8,
			1.0 / 4, 1.5 / 4, 1.0 / 2,
		},
		MB2CPUInstrs: 1 << 15,
		MB3Floats:    1 << 22,
		Warmup:       1,
	}
}

// TestParams returns a reduced scale for fast unit tests.
func TestParams() Params {
	p := DefaultParams()
	p.MB1MatrixBytes = 32 * units.KiB
	p.MB1Passes = 4
	p.MB1CPUOps = 512
	p.MB2Threads = 512
	p.MB2OpsPerThread = 512
	p.MB2Fractions = []float64{1.0 / 1024, 1.0 / 128, 1.0 / 32, 1.0 / 8, 1.0 / 2}
	p.MB2CPUInstrs = 1 << 12
	p.MB3Floats = 1 << 15
	return p
}

// mb1Workload builds the first micro-benchmark: a matrix elaborated by both
// sides. The CPU performs a chain of sqrt/div/mul on a single address of the
// shared matrix; the GPU performs a linear 2D reduction (ld.global,
// add.s32, st.global) over it, several passes, so the cached models serve it
// from the LL-L1 caches at steady state.
func mb1Workload(p Params) comm.Workload {
	n := p.MB1MatrixBytes / 4 // float32 elements
	return comm.Workload{
		Name: "mb1",
		Key:  fmt.Sprintf("%+v", p),
		In:   []comm.BufferSpec{{Name: "matrix", Size: p.MB1MatrixBytes}},
		Out:  []comm.BufferSpec{{Name: "sums", Size: maxInt64(p.MB1MatrixBytes/16, 64)}},
		CPUTask: func(c *cpu.CPU, lay comm.Layout) {
			// A chain of square roots, divisions and multiplications over
			// one address of the shared matrix (§III-B). The chain length
			// keeps the routine compute-leaning, so disabling the CPU
			// cache under ZC degrades it noticeably but not absurdly —
			// Fig 5's TX2 shape.
			addr := lay.Addr("matrix")
			for i := 0; i < p.MB1CPUOps; i++ {
				c.Load(addr, 4)
				c.Work(isa.SqrtF32, 16)
				c.Work(isa.DivF32, 16)
				c.Work(isa.MulF32, 16)
				c.Store(addr, 4)
			}
		},
		MakeKernel: func(lay comm.Layout, _ int) gpu.Kernel {
			matrix := lay.Addr("matrix")
			sums := lay.Addr("sums")
			// 2D reduction with linear (coalesced) accesses: on pass p,
			// thread tid loads elements tid, tid+T, tid+2T, ... with a
			// per-pass rotation so every SM's warps sweep the whole
			// matrix. The matrix fits the GPU LLC but not one SM's L1, so
			// at steady state the LL-L1 cache serves the traffic — the
			// component this benchmark is selective for.
			threads := int(n / 16)
			return gpu.Kernel{
				Name:    "mb1-reduce2d",
				Threads: threads,
				Program: func(tid int, prog *isa.Program) {
					// Pass p re-reads rows 0..15 (element (e*T + tid) of
					// the matrix, perfectly coalesced). A pass's working
					// set exceeds the SM L1 shared by the resident warps,
					// so at steady state the GPU LLC serves the re-reads:
					// the benchmark measures LL-L1 cache bandwidth.
					for pass := 0; pass < p.MB1Passes; pass++ {
						for e := int64(0); e < 16; e++ {
							idx := (e*int64(threads) + int64(tid)) * 4 % (n * 4)
							prog.Ld(matrix+idx, 4)
							prog.Compute(isa.AddS32, 1)
						}
						prog.St(sums+int64(tid)*4, 4)
					}
				},
				// Affine: e*threads + tid < 16*threads <= n, so the
				// modulo never wraps.
				Stride: 4,
			}
		},
		Warmup: p.Warmup,
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
