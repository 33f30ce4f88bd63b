package comm

import (
	"context"
	"fmt"

	"igpucomm/internal/cache"
	"igpucomm/internal/gpu"
	"igpucomm/internal/hazard"
	"igpucomm/internal/mmu"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
	"igpucomm/internal/tiling"
)

// This file is the checked mode: the opt-in path that statically verifies a
// workload × model × platform combination — layout disjointness, the §III-C
// schedule's tile ownership and barrier ordering, and the transaction-level
// hazard replay — before or instead of executing it.

// Scheduler is an optional Model extension: a model (or wrapper) that runs a
// custom tiled schedule exposes it here, and Verify proves that schedule
// instead of assuming the default §III-C even/odd checkerboard.
type Scheduler interface {
	Schedule(w Workload, geo tiling.Geometry, phases int) (hazard.Schedule, error)
}

// Verify statically checks the combination without executing it:
//
//  1. It places the model's allocation plan on the platform (Place, the
//     placement a run uses; then frees it) and checks the resulting layout
//     for overlapping or empty allocations.
//  2. It expands the §III-C even/odd schedule the zero-copy overlap path
//     would run over the workload's input grid and proves per-phase tile
//     disjointness and barrier ordering under the vector-clock model.
//
// The returned report's Checked count says how many facts were proven; use
// TraceCheck for the transaction-level replay.
func Verify(s *soc.SoC, w Workload, m Model) (hazard.Report, error) {
	rep := hazard.Report{Subject: fmt.Sprintf("%s/%s/%s", s.Name(), w.Name, m.Name())}
	if err := w.Validate(); err != nil {
		return rep, err
	}

	// 1. Layout: place the plan as a run would, collect the buffers, release.
	pl, release, err := Place(s, "verify/"+w.Name, w, m)
	if err != nil {
		return rep, fmt.Errorf("comm: verify %s: %w", w.Name, err)
	}
	release()
	rep.Merge(hazard.VerifyLayout(rep.Subject, pl.Buffers))
	if err := s.Space.Validate(); err != nil {
		return rep, fmt.Errorf("comm: verify %s: %w", w.Name, err)
	}

	// 2. Schedule: the checkerboard properties are grid-shape-independent,
	// so the grid derived from the workload's input volume is capped to
	// keep verification fast on large frames.
	geo, err := verifyGeometry(s, w)
	if err != nil {
		return rep, fmt.Errorf("comm: verify %s: %w", w.Name, err)
	}
	phases := w.LaunchCount()
	if phases < 2 {
		phases = 2
	}
	var sched hazard.Schedule
	if sch, ok := m.(Scheduler); ok {
		sched, err = sch.Schedule(w, geo, phases)
	} else {
		sched, err = hazard.FromPattern(tiling.Pattern{Geo: geo, Phases: phases})
	}
	if err != nil {
		return rep, fmt.Errorf("comm: verify %s: %w", w.Name, err)
	}
	srep := hazard.VerifySchedule(sched)
	srep.Subject = rep.Subject + " " + srep.Subject
	rep.Merge(srep)
	return rep, nil
}

// verifyGeometry derives the tile grid the overlapped zero-copy path would
// run over: the workload's input bytes as a 2D element grid with line-sized
// tiles, capped at 4096x64 elements.
func verifyGeometry(s *soc.SoC, w Workload) (tiling.Geometry, error) {
	cfg := s.Config()
	elems := w.BytesIn() / 4
	if elems < 1 {
		elems = 1
	}
	width := int64(4096)
	if elems < width {
		width = elems
	}
	height := elems / width
	if height < 1 {
		height = 1
	}
	if height > 64 {
		height = 64
	}
	return tiling.NewGeometry(int(width), int(height), 4, cfg.CPU.LLC.LineSize, cfg.GPU.LLC.LineSize)
}

// TraceCheck replays one launch of the workload at transaction granularity:
// it takes the kernel's coalesced transactions under the model's placement
// (Place) straight from the GPU compile pass — the stream Launch issues and
// `advisor trace` exports — wraps them with the CPU-side accesses and the
// model's synchronization protocol — flushes for the software-coherence
// models, migration writebacks for UM, barriers for all — and runs the
// whole interleaving through the hazard trace checker.
func TraceCheck(s *soc.SoC, w Workload, m Model, launch int) (hazard.Report, error) {
	subject := fmt.Sprintf("%s/%s/%s launch %d", s.Name(), w.Name, m.Name(), launch)
	rep := hazard.Report{Subject: subject}
	if err := w.Validate(); err != nil {
		return rep, err
	}
	if launch < 0 || launch >= w.LaunchCount() {
		return rep, fmt.Errorf("comm: trace check %s: launch %d out of range [0,%d)", w.Name, launch, w.LaunchCount())
	}
	pl, release, err := Place(s, "tracecheck-"+w.Name, w, m)
	if err != nil {
		return rep, err
	}
	defer release()
	cpuLay, gpuLay := pl.CPU, pl.GPU

	flushes := modelFlushes(m)
	var events []hazard.Event
	seq := 0
	emit := func(agent hazard.TraceAgent, op hazard.Op, path string, addr, size int64) {
		events = append(events, hazard.Event{Seq: seq, Agent: agent, Op: op, Path: path, Addr: addr, Size: size})
		seq++
	}

	// Epoch 0: the CPU task produces the inputs through its view.
	for _, spec := range w.In {
		b := cpuLay.Buffer(spec.Name)
		emit(hazard.TraceCPU, hazard.OpWrite, cpuPath(s, b), b.Addr, b.Size)
	}
	if flushes {
		for _, spec := range w.In {
			b := cpuLay.Buffer(spec.Name)
			emit(hazard.TraceCPU, hazard.OpFlush, "", b.Addr, b.Size)
		}
	}
	emit(hazard.TraceCPU, hazard.OpBarrier, "", 0, 0) // the launch boundary

	// Epoch 1: the kernel's coalesced transactions, in issue order.
	err = s.GPU.VisitTransactions(w.MakeKernel(gpuLay, launch), func(t gpu.Txn) {
		op := hazard.OpRead
		if t.Kind == cache.Write {
			op = hazard.OpWrite
		}
		emit(hazard.TraceGPU, op, t.Path(), t.Addr, t.Size)
	})
	if err != nil {
		return rep, fmt.Errorf("comm: trace check %s: %w", w.Name, err)
	}
	if flushes {
		for _, spec := range transferSpecs(w) {
			b := gpuLay.Buffer(spec.Name)
			emit(hazard.TraceGPU, hazard.OpFlush, "", b.Addr, b.Size)
		}
	}
	emit(hazard.TraceGPU, hazard.OpBarrier, "", 0, 0) // kernel completion

	// Epoch 2: the CPU consumes the outputs.
	for _, spec := range w.Out {
		b := cpuLay.Buffer(spec.Name)
		emit(hazard.TraceCPU, hazard.OpRead, cpuPath(s, b), b.Addr, b.Size)
	}

	// Hazard scope: the genuinely shared allocations (pinned windows and
	// managed memory); partitioned host/device buffers cannot alias.
	var shared []hazard.Range
	for _, b := range pl.Buffers {
		if b.Kind == mmu.Pinned || b.Kind == mmu.Managed {
			shared = append(shared, hazard.Range{Addr: b.Addr, Size: b.Size})
		}
	}

	opts := hazard.TraceOptions{
		LineSize:   s.Config().CPU.LLC.LineSize,
		Shared:     shared,
		IOCoherent: s.IOCoherent(),
	}
	out := hazard.CheckTrace(subject, events, opts)
	return out, nil
}

// modelFlushes says whether the model's protocol includes software-
// coherence cache maintenance between the CPU and GPU epochs: explicit
// flushes under the copy models, the migration engine's writeback +
// invalidate under UM. Zero-copy has none — its safety argument is the
// schedule, which is exactly what the verifier checks.
func modelFlushes(m Model) bool {
	switch m.(type) {
	case SC, SCAsync, Hybrid, UM:
		return true
	default:
		return false
	}
}

// cpuPath is the route a CPU access to the buffer takes: pinned buffers are
// uncached on platforms without I/O coherence, everything else goes through
// the cache hierarchy.
func cpuPath(s *soc.SoC, b mmu.Buffer) string {
	if b.Kind == mmu.Pinned && !s.IOCoherent() {
		return "pinned"
	}
	return "cached"
}

// CheckedRun is the checked mode: verify first, refuse to run a refuted
// combination, and attach the verification report to the run's Report.
func CheckedRun(ctx context.Context, s *soc.SoC, w Workload, m Model) (Report, error) {
	ctx, span := telemetry.Start(ctx, "comm.checked_run",
		telemetry.String("platform", s.Name()),
		telemetry.String("workload", w.Name),
		telemetry.String("model", m.Name()))
	defer span.End()
	_, vspan := telemetry.Start(ctx, "comm.verify")
	hz, err := Verify(s, w, m)
	vspan.End()
	if err != nil {
		span.SetAttr("verdict", "error")
		return Report{}, err
	}
	if !hz.OK() {
		span.SetAttr("verdict", "refuted")
		return Report{Model: m.Name(), Platform: s.Name(), Workload: w.Name, Hazards: &hz},
			fmt.Errorf("comm: %s refuted: %d hazards (first: %s)", hz.Subject, len(hz.Findings), hz.Findings[0])
	}
	span.SetAttr("verdict", "proven")
	_, rspan := telemetry.Start(ctx, "comm.run")
	rep, err := m.Run(s, w)
	rspan.End()
	if err != nil {
		return rep, err
	}
	rep.Hazards = &hz
	return rep, nil
}

// Checked wraps a model with the verifier, so any call site that takes a
// Model can opt into checked execution:
//
//	rep, err := comm.Checked{Inner: comm.ZC{}}.Run(s, w)
type Checked struct {
	Inner Model
}

// Name returns the inner model's name with a "+checked" suffix.
func (c Checked) Name() string { return c.Inner.Name() + "+checked" }

// Run verifies, then executes the inner model (see CheckedRun). The Model
// interface carries no context, so spans only appear when a caller uses
// CheckedRun directly with a traced context.
func (c Checked) Run(s *soc.SoC, w Workload) (Report, error) {
	//igpulint:ignore ctxflow the Model interface fixes this signature; ctx-aware callers use CheckedRun directly
	return CheckedRun(context.Background(), s, w, c.Inner)
}
