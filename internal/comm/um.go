package comm

import (
	"igpucomm/internal/gpu"
	"igpucomm/internal/mmu"
	"igpucomm/internal/soc"
	"igpucomm/internal/units"
)

// UM is the unified-memory model (paper Fig 1.d): CPU and GPU address one
// managed allocation; the runtime keeps coherence by migrating pages on
// demand between the two sides. The programmer sees pointers; the driver
// pays for them. Tasks are serialized, as with SC.
//
// With Workload.UMPrefetch set, migrations are issued ahead of the access
// (cudaMemPrefetchAsync): the bytes still move at copy-engine bandwidth but
// the per-page fault overhead disappears.
type UM struct{}

// umTouch moves a range to `by`, via demand faults or prefetch.
func umTouch(s *soc.SoC, w Workload, addr, size int64, by mmu.Owner) (faults, bytes int64) {
	if w.UMPrefetch {
		return 0, s.Migrator.Prefetch(addr, size, by)
	}
	return s.Migrator.Touch(addr, size, by)
}

// Name returns "um".
func (UM) Name() string { return "um" }

// AllocPlan places every buffer in one managed allocation both sides
// address; the migrator keeps the views coherent.
func (UM) AllocPlan(w Workload) []AllocGroup {
	return []AllocGroup{
		{Prefix: "um-", Kind: mmu.Managed, Specs: allSpecs(w), CPUVisible: true, GPUVisible: true},
	}
}

// Run executes the workload under unified memory.
func (m UM) Run(s *soc.SoC, w Workload) (Report, error) { return run(m, s, w) }

// iterate runs one UM iteration over the managed layout (both views are the
// one managed allocation); CopyBytes counts the migrated bytes.
func (UM) iterate(s *soc.SoC, w Workload, lay, _ Layout, lch *gpu.Launcher) (Report, error) {
	migBefore := s.Migrator.Stats().BytesMigrated

	// 1. The CPU faults its working buffers back (no-ops on first touch)
	// and produces the inputs.
	var faults, migBytes int64
	for _, spec := range w.In {
		b := lay.Buffer(spec.Name)
		f, by := umTouch(s, w, b.Addr, b.Size, mmu.OwnerCPU)
		faults, migBytes = faults+f, migBytes+by
	}
	copyIn := s.MigrationCost(faults, migBytes)
	chargeMigrationTraffic(s, migBytes)

	rep := timeCPU(s, w.CPUTask, lay)
	rep.CopyTime = copyIn

	// 2. Per launch, the kernel faults the pages of its stripe over to the
	// GPU side, then executes.
	launches := w.LaunchCount()
	rep.Launches = launches
	for l := 0; l < launches; l++ {
		faults, migBytes = 0, 0
		for _, spec := range transferSpecs(w) {
			addr, size := stripe(lay.Buffer(spec.Name), l, launches)
			f, by := umTouch(s, w, addr, size, mmu.OwnerGPU)
			faults, migBytes = faults+f, migBytes+by
			if f > 0 {
				// Migrating a page to the GPU side unmaps it from the
				// CPU: the driver writes back and invalidates the CPU's
				// cached copies (cost is inside the fault latency).
				s.CPU.L1().FlushRange(addr, addr+size, 0)
				s.CPU.LLC().FlushRange(addr, addr+size, 0)
			}
		}
		rep.CopyTime += s.MigrationCost(faults, migBytes)
		chargeMigrationTraffic(s, migBytes)

		res, err := lch.Launch(l, w.MakeKernel(lay, l))
		if err != nil {
			return Report{}, err
		}
		mergeGPU(&rep.GPU, res)
		// The UM driver's placement differs slightly from SC's explicit
		// layout; the paper bounds the effect at ±8% of kernel time.
		rep.KernelTime += units.Latency(float64(res.Time) * s.Config().UMKernelFactor)
		rep.LaunchTime += res.LaunchOverhead
	}

	// 3. The CPU faults the results back to consume them.
	faults, migBytes = 0, 0
	for _, spec := range w.Out {
		b := lay.Buffer(spec.Name)
		f, by := umTouch(s, w, b.Addr, b.Size, mmu.OwnerCPU)
		faults, migBytes = faults+f, migBytes+by
	}
	rep.CopyTime += s.MigrationCost(faults, migBytes)
	chargeMigrationTraffic(s, migBytes)

	post := timeCPU(s, w.CPUPost, lay)
	rep.CPUTime += post.CPUTime

	rep.Total = rep.CPUTime + rep.CopyTime + rep.KernelTime + rep.LaunchTime
	rep.CopyBytes = s.Migrator.Stats().BytesMigrated - migBefore
	return rep, nil
}

// chargeMigrationTraffic accounts a migration's DRAM round trip the same way
// the copy engine does (read + write of the moved bytes).
func chargeMigrationTraffic(s *soc.SoC, bytes int64) {
	if bytes <= 0 {
		return
	}
	s.ChargeDMATraffic(bytes)
}
