// Package comm implements the three CPU-iGPU communication models the paper
// compares (Fig 1):
//
//   - SC, standard copy: CPU and GPU work on separate logical partitions of
//     the shared memory; the copy engine moves data across; caches stay
//     enabled; software coherence flushes them around each kernel.
//   - UM, unified memory: one managed allocation; the runtime migrates pages
//     on demand between the CPU and GPU sides.
//   - ZC, zero-copy: one pinned allocation accessed concurrently through
//     pointers; no copies; cache behaviour depends on the platform's
//     coherence hardware (see internal/soc); CPU and GPU tasks may overlap.
//
// SCAsync and Hybrid extend the paper's three. Every model is a placement
// plan plus one iteration body; one shared skeleton runs each of them on a
// soc.SoC — allocation, warm-up, measurement — and produces a Report with
// identical structure, so the framework and the experiments compare the
// models on equal terms.
package comm

import (
	"fmt"

	"igpucomm/internal/cpu"
	"igpucomm/internal/energy"
	"igpucomm/internal/gpu"
	"igpucomm/internal/hazard"
	"igpucomm/internal/heatmap"
	"igpucomm/internal/mmu"
	"igpucomm/internal/soc"
	"igpucomm/internal/units"
)

// BufferSpec names one shared buffer and its size.
type BufferSpec struct {
	Name string
	Size int64
}

// Layout maps buffer names to their placement for the current run. A
// workload's tasks address memory through it, so the same workload runs
// unmodified under every model.
type Layout map[string]mmu.Buffer

// Addr returns the base address of a named buffer; it panics on unknown
// names because a workload referencing a buffer it never declared is a bug.
func (l Layout) Addr(name string) int64 {
	b, ok := l[name]
	if !ok {
		panic(fmt.Sprintf("comm: workload references undeclared buffer %q", name))
	}
	return b.Addr
}

// Buffer returns the full buffer record.
func (l Layout) Buffer(name string) mmu.Buffer {
	b, ok := l[name]
	if !ok {
		panic(fmt.Sprintf("comm: workload references undeclared buffer %q", name))
	}
	return b
}

// Workload is one iteration of a CPU+GPU application.
type Workload struct {
	Name string

	// In buffers are produced by the CPU and consumed by the GPU kernel
	// (host-to-device under SC). Out buffers flow the other way.
	In  []BufferSpec
	Out []BufferSpec
	// Scratch buffers are GPU-side working storage (camera DMA targets,
	// image pyramids, intermediate maps): the kernels read and write them
	// but they are never transferred. SC places them in the device
	// partition, UM leaves them GPU-resident, ZC pins them — which is why
	// a scratch-heavy kernel collapses on a ZC path without coherence
	// hardware (the ORB-SLAM case, Table V).
	Scratch []BufferSpec

	// CPUTask is the CPU-side producer work (runs before the kernels).
	CPUTask func(c *cpu.CPU, lay Layout)
	// CPUPost is optional CPU-side consumer work (runs after the kernels).
	CPUPost func(c *cpu.CPU, lay Layout)
	// MakeKernel builds GPU launch number `launch` (0-based) against the
	// layout. Applications that process a frame in several launches (the
	// paper's case studies do) return a different slice of work per launch.
	MakeKernel func(lay Layout, launch int) gpu.Kernel
	// Launches is the number of kernel launches per iteration; 0 means 1.
	// Under SC, each launch copies its 1/Launches share of the In buffers
	// before and of the Out buffers after (stripe processing), which is
	// what makes "copy time per kernel" a meaningful profile quantity.
	Launches int

	// Overlappable marks the CPU task and GPU kernel as independent within
	// an iteration (producer/consumer on *different* phases), so the
	// zero-copy model may run them concurrently using the tiled access
	// pattern of §III-C.
	Overlappable bool

	// UMPrefetch opts the unified-memory model into driver prefetching
	// (cudaMemPrefetchAsync): migrations still move the bytes but skip the
	// per-page demand-fault overhead — an extension beyond the paper's
	// on-demand UM.
	UMPrefetch bool

	// Warmup runs the iteration this many times before the measured run,
	// so caches reach steady state (how the paper's micro-benchmarks
	// measure peak behaviour).
	Warmup int
}

// Validate reports structural problems with the workload.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("comm: workload needs a name")
	}
	if w.MakeKernel == nil {
		return fmt.Errorf("comm: workload %s: nil MakeKernel", w.Name)
	}
	if w.CPUTask == nil {
		return fmt.Errorf("comm: workload %s: nil CPUTask", w.Name)
	}
	if len(w.In)+len(w.Out) == 0 {
		return fmt.Errorf("comm: workload %s: no shared buffers", w.Name)
	}
	seen := make(map[string]bool)
	all := append(append(append([]BufferSpec{}, w.In...), w.Out...), w.Scratch...)
	for _, b := range all {
		if b.Size <= 0 {
			return fmt.Errorf("comm: workload %s: buffer %q has size %d", w.Name, b.Name, b.Size)
		}
		if seen[b.Name] {
			return fmt.Errorf("comm: workload %s: duplicate buffer %q", w.Name, b.Name)
		}
		seen[b.Name] = true
	}
	if w.Warmup < 0 {
		return fmt.Errorf("comm: workload %s: negative warmup", w.Name)
	}
	if w.Launches < 0 {
		return fmt.Errorf("comm: workload %s: negative launch count", w.Name)
	}
	return nil
}

// LaunchCount returns the effective number of kernel launches (>= 1).
func (w Workload) LaunchCount() int {
	if w.Launches <= 0 {
		return 1
	}
	return w.Launches
}

// BytesIn and BytesOut total the declared transfer sizes.
func (w Workload) BytesIn() int64 {
	var n int64
	for _, b := range w.In {
		n += b.Size
	}
	return n
}

// BytesOut totals the GPU-to-CPU buffer sizes.
func (w Workload) BytesOut() int64 {
	var n int64
	for _, b := range w.Out {
		n += b.Size
	}
	return n
}

// Report is the outcome of running a workload under one model.
type Report struct {
	Model    string
	Platform string
	Workload string

	// Total is the end-to-end iteration time.
	Total units.Latency
	// CPUTime is the CPU task (+post) time alone.
	CPUTime units.Latency
	// KernelTime is the total GPU kernel execution time across launches
	// (profiler-style: launch overhead excluded).
	KernelTime units.Latency
	// LaunchTime is the accumulated software launch overhead.
	LaunchTime units.Latency
	// Launches is the number of kernel launches in the iteration.
	Launches int
	// CopyTime is explicit copy time (SC) or migration time (UM); zero
	// for ZC — that is the point.
	CopyTime units.Latency
	// FlushTime is software-coherence cache maintenance time (SC only).
	FlushTime units.Latency
	// Overlapped reports whether CPU and GPU ran concurrently (ZC pattern).
	Overlapped bool
	// OverlapCapable records the workload's Overlappable flag, so the
	// advisor knows whether eqn 3's task-overlap credit applies.
	OverlapCapable bool

	// GPU carries the kernel's detailed traffic counters.
	GPU gpu.Result
	// CPUL1MissRate / CPULLCMissRate profile the CPU task (eqn 1 inputs).
	CPUL1MissRate  float64
	CPULLCMissRate float64
	// CPUL1Misses and CPUInstrs allow the instruction-normalized cache
	// usage variant (what density sweeps and the framework thresholds use).
	CPUL1Misses int64
	CPUInstrs   int64

	// DRAMBytes is total DRAM traffic for the iteration; CopyBytes the
	// copy-engine share of it.
	DRAMBytes int64
	CopyBytes int64

	// DeclaredBytesIn/Out are the workload's declared transfer volumes
	// (what SC would copy), kept so the advisor can price a model switch.
	DeclaredBytesIn  int64
	DeclaredBytesOut int64

	// Energy summarizes the run for the power model.
	Energy energy.Activity

	// Hazards is the verifier's report when the run went through the
	// checked mode (CheckedRun / the Checked wrapper); nil otherwise. A
	// non-nil report with zero findings is a machine-checked statement
	// that the schedule and layout this run used are race-free.
	Hazards *hazard.Report

	// BufferHeat is the per-buffer heat snapshot of the measured iteration,
	// hottest first; nil unless the platform ran with heat profiling enabled
	// (soc.EnableHeat). Heat recording never perturbs the timings above.
	BufferHeat []heatmap.BufferHeat
}

// KernelTimePer is the mean time of one kernel launch.
func (r Report) KernelTimePer() units.Latency {
	if r.Launches <= 0 {
		return r.KernelTime
	}
	return r.KernelTime / units.Latency(r.Launches)
}

// CopyTimePer is the mean copy (or migration) time attributable to one
// kernel launch — the paper's "copy time per kernel".
func (r Report) CopyTimePer() units.Latency {
	if r.Launches <= 0 {
		return r.CopyTime
	}
	return r.CopyTime / units.Latency(r.Launches)
}

// Throughput is the end-to-end processing rate in iterations per second.
func (r Report) Throughput() float64 {
	if r.Total <= 0 {
		return 0
	}
	return 1 / r.Total.Seconds()
}

// Model is one communication model.
type Model interface {
	Name() string
	// Run executes the workload on the platform and reports timings. The
	// platform's state is reset at entry; buffers the model allocates are
	// freed before returning. Every built-in model's Run delegates to one
	// run skeleton, the only place a model's AllocPlan is allocated for
	// execution, so all models are measured on equal terms.
	Run(s *soc.SoC, w Workload) (Report, error)
}

// Models returns the three paper models in presentation order.
func Models() []Model { return []Model{SC{}, UM{}, ZC{}} }

// AllModels additionally includes the extensions beyond the paper (the
// double-buffered sc-async and the copied-in/pinned-out hybrid).
func AllModels() []Model { return []Model{SC{}, SCAsync{}, UM{}, ZC{}, Hybrid{}} }

// ByName resolves a model by its short name ("sc", "sc-async", "um", "zc",
// "hybrid").
func ByName(name string) (Model, error) {
	for _, m := range AllModels() {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("comm: unknown model %q (have sc, sc-async, um, zc, hybrid)", name)
}

// AllocGroup is one allocation batch in a model's placement plan: which
// buffer specs it places, with what kind, and which side's view of the
// workload the resulting layout backs. The run skeleton every model's Run
// delegates to is the only place a plan is allocated for execution, so each
// run allocates exactly its model's AllocPlan by construction and the
// verifier reasons about the same placement the execution uses.
type AllocGroup struct {
	// Prefix distinguishes the group's buffer names ("host-", "dev-", ...).
	Prefix string
	// Kind is the mmu allocation kind for every buffer in the group.
	Kind mmu.Kind
	// Specs are the buffers the group places.
	Specs []BufferSpec
	// CPUVisible and GPUVisible say whether this group's layout backs the
	// CPU task's view and the kernels' view of the named buffers.
	CPUVisible, GPUVisible bool
}

// Planner exposes a model's placement plan without executing it — what the
// hazard verifier mirrors. Every communication model implements it.
type Planner interface {
	AllocPlan(w Workload) []AllocGroup
}

// iterator is a built-in model as the run skeleton drives it: a placement
// plan plus the body of one iteration over that plan's CPU-side and
// GPU-side views.
type iterator interface {
	Model
	Planner
	// iterate runs one iteration and fills the model's share of the
	// Report: the CPU, flush, copy, kernel and launch times, the launch
	// count and GPU counters, Overlapped, Total and CopyBytes.
	iterate(s *soc.SoC, w Workload, cpuLay, gpuLay Layout, lch *gpu.Launcher) (Report, error)
}

// run is the skeleton every built-in model's Run delegates to, and the only
// place a model's AllocPlan is allocated for execution. It validates the
// workload, resets the platform, allocates the plan (freed on return) and
// runs Warmup untimed iterations plus the measured one on one launcher
// scoped "<model>/<workload>" (the kernel-cache scope). Around the measured
// iteration it records what every model reports alike: the DRAM traffic,
// the energy activity, the buffer heat and the identifying fields.
func run(m iterator, s *soc.SoC, w Workload) (Report, error) {
	if err := w.Validate(); err != nil {
		return Report{}, err
	}
	s.ResetState()
	plan := m.AllocPlan(w)
	lays, names, err := allocPlan(s, w.Name, plan)
	if err != nil {
		return Report{}, err
	}
	defer freeAll(s, names)
	cpuLay, gpuLay := planViews(plan, lays)

	var rep Report
	lch := gpu.NewLauncher(s.GPU, m.Name()+"/"+w.Name)
	for i := 0; i <= w.Warmup; i++ {
		resetHeat(s)
		dramBefore := s.DRAM.Stats().Bytes()
		if rep, err = m.iterate(s, w, cpuLay, gpuLay, lch); err != nil {
			return Report{}, err
		}
		rep.DRAMBytes = s.DRAM.Stats().Bytes() - dramBefore
	}
	captureHeat(s, &rep)
	// FlushTime is zero under the models without software coherence, so
	// one formula prices every model's busy time.
	rep.Energy = energy.Activity{
		Runtime:   rep.Total,
		CPUBusy:   rep.CPUTime + rep.FlushTime + rep.LaunchTime,
		GPUBusy:   rep.KernelTime,
		DRAMBytes: rep.DRAMBytes,
		CopyBytes: rep.CopyBytes,
	}
	rep.Model = m.Name()
	rep.Platform = s.Name()
	rep.Workload = w.Name
	rep.DeclaredBytesIn = w.BytesIn()
	rep.DeclaredBytesOut = w.BytesOut()
	rep.OverlapCapable = w.Overlappable
	return rep, nil
}

// allocPlan materializes a placement plan group by group. It returns one
// Layout per group, in plan order, plus the allocated names for cleanup.
func allocPlan(s *soc.SoC, wName string, plan []AllocGroup) ([]Layout, []string, error) {
	lays := make([]Layout, 0, len(plan))
	var all []string
	for _, g := range plan {
		lay, names, err := allocAll(s, wName, g.Specs, g.Kind, g.Prefix)
		if err != nil {
			freeAll(s, all)
			return nil, nil, err
		}
		lays = append(lays, lay)
		all = append(all, names...)
	}
	return lays, all, nil
}

// planViews merges a plan's layouts into the CPU-side and GPU-side views of
// the workload's buffers (later groups win on name collisions, matching the
// hybrid model's host+pinned / device+pinned composition).
func planViews(plan []AllocGroup, lays []Layout) (cpuLay, gpuLay Layout) {
	cpuLay, gpuLay = Layout{}, Layout{}
	for i, g := range plan {
		for name, b := range lays[i] {
			if g.CPUVisible {
				cpuLay[name] = b
			}
			if g.GPUVisible {
				gpuLay[name] = b
			}
		}
	}
	return cpuLay, gpuLay
}

// allocAll places the given buffers with one kind, returning the layout.
// Buffer names are prefixed with the workload name to stay unique. Zero- or
// negative-sized and duplicate specs are rejected here — before any space
// is carved — so a malformed spec list cannot corrupt the layout.
func allocAll(s *soc.SoC, wName string, specs []BufferSpec, kind mmu.Kind, prefix string) (Layout, []string, error) {
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if spec.Size <= 0 {
			return nil, nil, fmt.Errorf("comm: alloc %s/%s%s: buffer size %d must be positive",
				wName, prefix, spec.Name, spec.Size)
		}
		if seen[spec.Name] {
			return nil, nil, fmt.Errorf("comm: alloc %s/%s%s: duplicate buffer spec", wName, prefix, spec.Name)
		}
		seen[spec.Name] = true
	}
	lay := make(Layout, len(specs))
	var names []string
	for _, spec := range specs {
		full := wName + "/" + prefix + spec.Name
		var (
			b   mmu.Buffer
			err error
		)
		switch kind {
		case mmu.HostAlloc:
			b, err = s.AllocHost(full, spec.Size)
		case mmu.DeviceAlloc:
			b, err = s.AllocDevice(full, spec.Size)
		case mmu.Pinned:
			b, err = s.AllocPinned(full, spec.Size)
		case mmu.Managed:
			b, err = s.AllocManaged(full, spec.Size)
		}
		if err != nil {
			freeAll(s, names)
			return nil, nil, err
		}
		lay[spec.Name] = b
		names = append(names, full)
	}
	// The allocator's invariants (live buffers pairwise disjoint, free list
	// consistent) hold by construction; check them anyway so a future
	// allocator bug surfaces here instead of as silent layout corruption.
	if err := s.Space.Validate(); err != nil {
		freeAll(s, names)
		return nil, nil, fmt.Errorf("comm: alloc %s: %w", wName, err)
	}
	return lay, names, nil
}

func freeAll(s *soc.SoC, names []string) {
	for _, n := range names {
		_ = s.Free(n) // best-effort cleanup; names came from allocAll
	}
}

// transferSpecs returns the buffers SC copies and UM migrates (In + Out;
// Scratch never moves).
func transferSpecs(w Workload) []BufferSpec {
	return append(append([]BufferSpec{}, w.In...), w.Out...)
}

// allSpecs returns every buffer the kernels may address.
func allSpecs(w Workload) []BufferSpec {
	return append(transferSpecs(w), w.Scratch...)
}

// stripe returns the byte range of launch l's share of a buffer split into
// n stripes (the last stripe absorbs the remainder).
func stripe(b mmu.Buffer, l, n int) (addr, size int64) {
	share := b.Size / int64(n)
	addr = b.Addr + int64(l)*share
	size = share
	if l == n-1 {
		size = b.Size - int64(l)*share
	}
	return addr, size
}

// mergeGPU accumulates launch b into the iteration total a. Time adds; the
// traffic counters add; Bound keeps the most recent launch's verdict.
func mergeGPU(a *gpu.Result, b gpu.Result) {
	a.Time += b.Time
	a.LaunchOverhead += b.LaunchOverhead
	a.Warps += b.Warps
	a.Instructions += b.Instructions
	a.Transactions += b.Transactions
	a.TransactionBytes += b.TransactionBytes
	a.BytesRequested += b.BytesRequested
	a.L1.Add(b.L1)
	a.LLC.Add(b.LLC)
	a.DRAM.Add(b.DRAM)
	a.Pinned.Add(b.Pinned)
	a.Bound = b.Bound
}

// timeCPU runs f against the CPU model and returns a Report holding its
// profile: the elapsed time as CPUTime plus the cache counters the
// performance model consumes. Each model's iteration starts its Report from
// the CPU task's; the CPUPost run only adds its CPUTime.
func timeCPU(s *soc.SoC, f func(c *cpu.CPU, lay Layout), lay Layout) Report {
	var rep Report
	if f == nil {
		return rep
	}
	c := s.CPU
	l1Before, llcBefore := c.L1().Stats(), c.LLC().Stats()
	instrBefore := c.Instructions()
	start := c.Elapsed()
	f(c, lay)
	rep.CPUTime = c.Elapsed() - start
	rep.CPUInstrs = c.Instructions() - instrBefore
	l1 := c.L1().Stats()
	llc := c.LLC().Stats()
	rep.CPUL1Misses = l1.Misses() - l1Before.Misses()
	if d := l1.Accesses() - l1Before.Accesses(); d > 0 {
		rep.CPUL1MissRate = float64(rep.CPUL1Misses) / float64(d)
	}
	if d := llc.Accesses() - llcBefore.Accesses(); d > 0 {
		rep.CPULLCMissRate = float64(llc.Misses()-llcBefore.Misses()) / float64(d)
	}
	return rep
}

// String summarizes the run for logs and CLIs.
func (r Report) String() string {
	return fmt.Sprintf("%s/%s under %s: total %v (cpu %v, kernels %v x%d, copies %v, flushes %v, launch %v)",
		r.Platform, r.Workload, r.Model, r.Total.Duration(),
		r.CPUTime.Duration(), r.KernelTime.Duration(), r.Launches,
		r.CopyTime.Duration(), r.FlushTime.Duration(), r.LaunchTime.Duration())
}

// resetHeat zeroes the platform's heat accumulator (if profiling is on) so
// each warmup iteration starts clean and the measured iteration's snapshot
// reflects only itself.
func resetHeat(s *soc.SoC) {
	if h := s.Heat(); h != nil {
		h.Reset()
	}
}

// captureHeat snapshots the per-buffer heat of the just-finished iteration
// into the report. A no-op (leaving BufferHeat nil) when heat profiling is
// off, so default runs stay byte-identical.
func captureHeat(s *soc.SoC, rep *Report) {
	h := s.Heat()
	if h == nil {
		return
	}
	rep.BufferHeat = h.Snapshot(s.Space.Buffers())
}
