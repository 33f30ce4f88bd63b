package comm

import (
	"igpucomm/internal/gpu"
	"igpucomm/internal/mmu"
	"igpucomm/internal/soc"
	"igpucomm/internal/units"
)

// SC is the standard-copy model (paper Fig 1.c): the shared physical memory
// is partitioned into CPU and GPU logical spaces, the copy engine moves
// buffers across, all caches stay enabled, and software coherence flushes
// them around every kernel launch. CPU and GPU tasks are serialized.
type SC struct{}

// Name returns "sc".
func (SC) Name() string { return "sc" }

// GPUFlushLineCost is the per-line walk cost of the post-kernel GPU cache
// flush, in ns.
const GPUFlushLineCost units.Latency = 2

// AllocPlan places the transfer buffers in the host partition and every
// buffer the kernels address — transfers plus scratch — in the device
// partition. The CPU task sees the host copies, the kernels the device ones.
func (SC) AllocPlan(w Workload) []AllocGroup {
	return []AllocGroup{
		{Prefix: "host-", Kind: mmu.HostAlloc, Specs: transferSpecs(w), CPUVisible: true},
		{Prefix: "dev-", Kind: mmu.DeviceAlloc, Specs: allSpecs(w), GPUVisible: true},
	}
}

// Run executes the workload under standard copy.
func (m SC) Run(s *soc.SoC, w Workload) (Report, error) { return run(m, s, w) }

// iterate runs one SC iteration: the CPU task, then one striped
// copy-kernel-copy round per launch, then the optional CPU consumer.
func (SC) iterate(s *soc.SoC, w Workload, hostLay, devLay Layout, lch *gpu.Launcher) (Report, error) {
	copyBefore := s.CopyBytes()

	// 1. CPU produces the inputs in its own partition.
	rep := timeCPU(s, w.CPUTask, hostLay)

	// 2-6. One striped copy-kernel-copy round per launch, with software
	// coherence flushes around every kernel (the SC protocol).
	launches := w.LaunchCount()
	rep.Launches = launches
	for l := 0; l < launches; l++ {
		// Flush the shared buffers out of the CPU caches (maintenance by
		// VA) so the copy engine (and the GPU) observe the produced data.
		// Private CPU working sets stay cached — real drivers flush
		// ranges, not the whole hierarchy.
		flushStart := s.CPU.Elapsed()
		for _, spec := range transferSpecs(w) {
			b := hostLay.Buffer(spec.Name)
			s.CPU.FlushRange(b.Addr, b.End())
		}
		rep.FlushTime += s.CPU.Elapsed() - flushStart

		// Copy this launch's input stripes host -> device.
		for _, spec := range w.In {
			_, size := stripe(hostLay.Buffer(spec.Name), l, launches)
			rep.CopyTime += s.Copy(size)
		}

		res, err := lch.Launch(l, w.MakeKernel(devLay, l))
		if err != nil {
			return Report{}, err
		}
		mergeGPU(&rep.GPU, res)
		rep.KernelTime += res.Time
		rep.LaunchTime += res.LaunchOverhead

		// Flush the shared buffers out of the GPU caches so the copy
		// engine (and the CPU) observe the results.
		for _, spec := range transferSpecs(w) {
			b := devLay.Buffer(spec.Name)
			_, gpuFlushCost := s.GPU.FlushRange(b.Addr, b.End(), GPUFlushLineCost)
			rep.FlushTime += gpuFlushCost
		}

		// Copy this launch's output stripes device -> host.
		for _, spec := range w.Out {
			_, size := stripe(hostLay.Buffer(spec.Name), l, launches)
			rep.CopyTime += s.Copy(size)
		}
	}

	// 7. Optional CPU consumer work.
	post := timeCPU(s, w.CPUPost, hostLay)
	rep.CPUTime += post.CPUTime

	rep.Total = rep.CPUTime + rep.FlushTime + rep.CopyTime + rep.KernelTime + rep.LaunchTime
	rep.CopyBytes = s.CopyBytes() - copyBefore
	return rep, nil
}
