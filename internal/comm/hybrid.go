package comm

import (
	"igpucomm/internal/gpu"
	"igpucomm/internal/mmu"
	"igpucomm/internal/soc"
)

// Hybrid is an extension beyond the paper's three models: inputs travel by
// explicit copy (cached on both sides, like SC), while outputs are written
// straight into a pinned buffer the CPU reads without a copy-back (like ZC).
// Production ports often land here: the big camera frame benefits from the
// cached path, while small results are cheapest through the zero-copy
// window. The framework's Explore ranks it against the pure models.
type Hybrid struct{}

// Name returns "hybrid".
func (Hybrid) Name() string { return "hybrid" }

// AllocPlan stages inputs through host+device partitions (the SC path) and
// shares one pinned window for the outputs (the ZC path).
func (Hybrid) AllocPlan(w Workload) []AllocGroup {
	return []AllocGroup{
		{Prefix: "host-", Kind: mmu.HostAlloc, Specs: w.In, CPUVisible: true},
		{Prefix: "dev-", Kind: mmu.DeviceAlloc,
			Specs: append(append([]BufferSpec{}, w.In...), w.Scratch...), GPUVisible: true},
		{Prefix: "pin-", Kind: mmu.Pinned, Specs: w.Out, CPUVisible: true, GPUVisible: true},
	}
}

// Run executes the workload under the hybrid model.
func (m Hybrid) Run(s *soc.SoC, w Workload) (Report, error) { return run(m, s, w) }

// iterate runs one hybrid iteration. The CPU view holds the host inputs and
// the pinned outputs; the GPU view holds the device inputs and scratch and
// the same pinned outputs. Only the inputs are flushed and copied.
func (Hybrid) iterate(s *soc.SoC, w Workload, cpuLay, gpuLay Layout, lch *gpu.Launcher) (Report, error) {
	copyBefore := s.CopyBytes()
	rep := timeCPU(s, w.CPUTask, cpuLay)

	launches := w.LaunchCount()
	rep.Launches = launches
	for l := 0; l < launches; l++ {
		// Software coherence on the copied inputs only; the pinned outputs
		// need none.
		flushStart := s.CPU.Elapsed()
		for _, spec := range w.In {
			b := cpuLay.Buffer(spec.Name)
			s.CPU.FlushRange(b.Addr, b.End())
		}
		rep.FlushTime += s.CPU.Elapsed() - flushStart

		for _, spec := range w.In {
			_, size := stripe(cpuLay.Buffer(spec.Name), l, launches)
			rep.CopyTime += s.Copy(size)
		}

		res, err := lch.Launch(l, w.MakeKernel(gpuLay, l))
		if err != nil {
			return Report{}, err
		}
		mergeGPU(&rep.GPU, res)
		rep.KernelTime += res.Time
		rep.LaunchTime += res.LaunchOverhead

		for _, spec := range w.In {
			b := gpuLay.Buffer(spec.Name)
			_, cost := s.GPU.FlushRange(b.Addr, b.End(), GPUFlushLineCost)
			rep.FlushTime += cost
		}
	}

	post := timeCPU(s, w.CPUPost, cpuLay)
	rep.CPUTime += post.CPUTime

	rep.Total = rep.CPUTime + rep.FlushTime + rep.CopyTime + rep.KernelTime + rep.LaunchTime
	rep.CopyBytes = s.CopyBytes() - copyBefore
	return rep, nil
}
