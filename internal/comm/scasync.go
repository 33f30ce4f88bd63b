package comm

import (
	"igpucomm/internal/gpu"
	"igpucomm/internal/mmu"
	"igpucomm/internal/soc"
	"igpucomm/internal/units"
)

// SCAsync is an extension beyond the paper's three models: standard copy
// with CUDA-streams-style double buffering. The copy engine and the GPU are
// separate resources, so launch l's kernel overlaps launch l+1's input copy
// and launch l-1's output copy — hiding transfer time behind compute the way
// production ports do once the synchronous SC version works.
//
// It exists to show the framework generalizes: the advisor's copy-time
// accounting prices exactly the component this model hides, so an
// application whose verdict was "switch to ZC for the copy savings" may
// instead keep cached memory and pipeline the copies.
type SCAsync struct{}

// Name returns "sc-async".
func (SCAsync) Name() string { return "sc-async" }

// AllocPlan matches SC's placement: host partition for transfers, device
// partition for everything the kernels address. Double buffering changes
// the timeline, not the layout.
func (SCAsync) AllocPlan(w Workload) []AllocGroup {
	return []AllocGroup{
		{Prefix: "host-", Kind: mmu.HostAlloc, Specs: transferSpecs(w), CPUVisible: true},
		{Prefix: "dev-", Kind: mmu.DeviceAlloc, Specs: allSpecs(w), GPUVisible: true},
	}
}

// Run executes the workload under double-buffered standard copy.
func (m SCAsync) Run(s *soc.SoC, w Workload) (Report, error) { return run(m, s, w) }

// iterate runs one sc-async iteration: the CPU task, the per-launch copy
// and kernel stages composed as a two-resource pipeline, then the optional
// CPU consumer.
func (SCAsync) iterate(s *soc.SoC, w Workload, hostLay, devLay Layout, lch *gpu.Launcher) (Report, error) {
	copyBefore := s.CopyBytes()
	rep := timeCPU(s, w.CPUTask, hostLay)

	// One producer-side flush: the CPU is done with the inputs before the
	// pipeline starts (output stripes are flushed per launch below).
	flushStart := s.CPU.Elapsed()
	for _, spec := range w.In {
		b := hostLay.Buffer(spec.Name)
		s.CPU.FlushRange(b.Addr, b.End())
	}
	rep.FlushTime += s.CPU.Elapsed() - flushStart

	launches := w.LaunchCount()
	rep.Launches = launches

	// Measure the per-launch stage times, then compose the two-resource
	// pipeline (copy engine vs GPU).
	copyIn := make([]units.Latency, launches)
	copyOut := make([]units.Latency, launches)
	kern := make([]units.Latency, launches)
	for l := 0; l < launches; l++ {
		for _, spec := range w.In {
			_, size := stripe(hostLay.Buffer(spec.Name), l, launches)
			copyIn[l] += s.Copy(size)
		}
		res, err := lch.Launch(l, w.MakeKernel(devLay, l))
		if err != nil {
			return Report{}, err
		}
		mergeGPU(&rep.GPU, res)
		kern[l] = res.Time
		rep.KernelTime += res.Time
		rep.LaunchTime += res.LaunchOverhead

		for _, spec := range transferSpecs(w) {
			b := devLay.Buffer(spec.Name)
			_, cost := s.GPU.FlushRange(b.Addr, b.End(), GPUFlushLineCost)
			rep.FlushTime += cost
		}
		for _, spec := range w.Out {
			_, size := stripe(hostLay.Buffer(spec.Name), l, launches)
			copyOut[l] += s.Copy(size)
		}
		rep.CopyTime += copyIn[l] + copyOut[l]
	}

	// Two-resource pipeline: the GPU runs kernel l while the copy engine
	// moves launch l+1's inputs and launch l-1's outputs. Model each as a
	// ready-time recurrence.
	var engineFree, gpuFree units.Latency
	for l := 0; l < launches; l++ {
		// Input copy for launch l occupies the engine.
		inDone := engineFree + copyIn[l]
		engineFree = inDone
		// Kernel l starts when its input is there and the GPU is free.
		start := inDone
		if gpuFree > start {
			start = gpuFree
		}
		gpuFree = start + kern[l]
		// Output copy for launch l queues on the engine after the kernel.
		outStart := gpuFree
		if engineFree > outStart {
			outStart = engineFree
		}
		engineFree = outStart + copyOut[l]
	}
	pipeline := engineFree
	if gpuFree > pipeline {
		pipeline = gpuFree
	}

	rep.Overlapped = true
	rep.Total = rep.CPUTime + rep.FlushTime + pipeline + rep.LaunchTime

	post := timeCPU(s, w.CPUPost, hostLay)
	rep.CPUTime += post.CPUTime
	rep.Total += post.CPUTime
	rep.CopyBytes = s.CopyBytes() - copyBefore
	return rep, nil
}
