package comm

import (
	"igpucomm/internal/gpu"
	"igpucomm/internal/mmu"
	"igpucomm/internal/soc"
)

// ZC is the zero-copy model (paper Fig 1.a/1.b): CPU and GPU access the same
// pinned allocation through pointers. There are no copies and no software
// flushes; instead the platform's coherence wiring decides the cost — on
// Nano/TX2 the buffers are uncached on both sides, on Xavier the GPU snoops
// the CPU LLC through hardware I/O coherence.
//
// When the workload is marked Overlappable, the CPU task and the GPU kernel
// run concurrently (the §III-C tiled access pattern provides the required
// data-consistency discipline; internal/tiling implements it), contending
// for DRAM bandwidth through the SoC's arbiter.
type ZC struct{}

// Name returns "zc".
func (ZC) Name() string { return "zc" }

// AllocPlan pins every buffer once; both sides address the same bytes —
// the whole point of the model, and the reason its schedules need the
// hazard verifier.
func (ZC) AllocPlan(w Workload) []AllocGroup {
	return []AllocGroup{
		{Prefix: "zc-", Kind: mmu.Pinned, Specs: allSpecs(w), CPUVisible: true, GPUVisible: true},
	}
}

// Run executes the workload under zero-copy.
func (m ZC) Run(s *soc.SoC, w Workload) (Report, error) { return run(m, s, w) }

// iterate runs one ZC iteration: the CPU task and the kernels on the pinned
// buffers, overlapped when the workload allows it. Both views are the one
// pinned layout; nothing is copied, so CopyBytes stays zero.
func (ZC) iterate(s *soc.SoC, w Workload, lay, _ Layout, lch *gpu.Launcher) (Report, error) {
	// CPU task, with its DRAM-side traffic attributed for the arbiter.
	cpuTrafficBefore := s.CPUTraffic().Bytes()
	rep := timeCPU(s, w.CPUTask, lay)
	cpuBytes := s.CPUTraffic().Bytes() - cpuTrafficBefore
	taskTime := rep.CPUTime

	// Kernels straight onto the pinned buffers.
	launches := w.LaunchCount()
	rep.Launches = launches
	var gpuBytes int64
	for l := 0; l < launches; l++ {
		res, err := lch.Launch(l, w.MakeKernel(lay, l))
		if err != nil {
			return Report{}, err
		}
		mergeGPU(&rep.GPU, res)
		rep.KernelTime += res.Time
		rep.LaunchTime += res.LaunchOverhead
		gpuBytes += res.DRAM.Bytes() + res.Pinned.Bytes()
	}

	post := timeCPU(s, w.CPUPost, lay)
	rep.CPUTime += post.CPUTime

	if w.Overlappable {
		// §III-C pattern: producer/consumer phases alternate over tiles,
		// so the CPU task and the kernel execute concurrently, sharing
		// DRAM bandwidth.
		makespan, _ := s.Overlap(
			soc.Stream{Name: "cpu", Solo: taskTime, Bytes: cpuBytes},
			soc.Stream{Name: "gpu", Solo: rep.KernelTime, Bytes: gpuBytes},
		)
		rep.Total = makespan + rep.LaunchTime + post.CPUTime
		rep.Overlapped = true
	} else {
		rep.Total = rep.CPUTime + rep.KernelTime + rep.LaunchTime
	}
	return rep, nil
}
