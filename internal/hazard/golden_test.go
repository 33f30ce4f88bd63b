package hazard_test

// Golden end-to-end checks for the trace checker, in an external test
// package so they can drive the real device catalog, the shwfs case study
// and the GPU's transaction tracer (which sit above package hazard in the
// dependency order).

import (
	"os"
	"path/filepath"
	"testing"

	"igpucomm/internal/apps/shwfs"
	"igpucomm/internal/cache"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/gpu"
	"igpucomm/internal/hazard"
)

// TestGoldenShwfsZCTraceOnTX2 replays exactly the transactions `advisor
// trace -device jetson-tx2 -app shwfs -model zc` exports — the kernel's
// coalesced transactions on pinned buffers, taken from the GPU compile
// pass — wrapped with the CPU's producer writes
// and consumer reads under the zero-copy protocol (no flushes; barriers at
// the launch boundaries). The seed schedule must come out hazard-free.
func TestGoldenShwfsZCTraceOnTX2(t *testing.T) {
	s, err := devices.NewSoC(devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := shwfs.Workload(shwfs.DefaultWorkloadParams())
	if err != nil {
		t.Fatal(err)
	}

	// Place every buffer pinned, in spec order: the ZC plan's placement
	// (comm.Place), which `advisor trace -model zc` builds the kernel on.
	lay := comm.Layout{}
	all := append(append(append([]comm.BufferSpec{}, w.In...), w.Out...), w.Scratch...)
	for _, spec := range all {
		b, err := s.AllocPinned("trace/"+spec.Name, spec.Size)
		if err != nil {
			t.Fatal(err)
		}
		lay[spec.Name] = b
	}

	var gpuEvents []hazard.Event
	err = s.GPU.VisitTransactions(w.MakeKernel(lay, 0), func(tx gpu.Txn) {
		op := hazard.OpRead
		if tx.Kind == cache.Write {
			op = hazard.OpWrite
		}
		gpuEvents = append(gpuEvents, hazard.Event{Agent: hazard.TraceGPU, Op: op, Path: tx.Path(), Addr: tx.Addr, Size: tx.Size})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gpuEvents) == 0 {
		t.Fatal("empty kernel trace")
	}

	// CPU producer epoch, barrier, kernel, barrier, CPU consumer epoch.
	var events []hazard.Event
	seq := 0
	emit := func(agent hazard.TraceAgent, op hazard.Op, addr, size int64) {
		events = append(events, hazard.Event{Seq: seq, Agent: agent, Op: op, Path: "pinned", Addr: addr, Size: size})
		seq++
	}
	for _, spec := range w.In {
		b := lay[spec.Name]
		emit(hazard.TraceCPU, hazard.OpWrite, b.Addr, b.Size)
	}
	emit(hazard.TraceCPU, hazard.OpBarrier, 0, 0)
	for _, e := range gpuEvents {
		e.Seq = seq
		seq++
		events = append(events, e)
	}
	emit(hazard.TraceGPU, hazard.OpBarrier, 0, 0)
	for _, spec := range w.Out {
		b := lay[spec.Name]
		emit(hazard.TraceCPU, hazard.OpRead, b.Addr, b.Size)
	}

	rep := hazard.CheckTrace("golden shwfs/zc/tx2", events, hazard.TraceOptions{
		LineSize:   64,
		IOCoherent: false, // TX2 has no hardware I/O coherence
	})
	if !rep.OK() {
		t.Fatalf("seed trace flagged:\n%s", rep)
	}
	if rep.Checked == 0 {
		t.Fatal("checker inspected nothing")
	}
}

// TestGoldenMutatedTraceOneRAW feeds the checked-in mutated fixture — a
// zero-copy trace whose final CPU write lost its barrier — and requires
// exactly one finding: a RAW on the orphaned line.
func TestGoldenMutatedTraceOneRAW(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "mutated_trace.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := hazard.ParseEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	rep := hazard.CheckTrace("mutated fixture", events, hazard.TraceOptions{LineSize: 64})
	if len(rep.Findings) != 1 {
		t.Fatalf("want exactly 1 finding, got %d:\n%s", len(rep.Findings), rep)
	}
	got := rep.Findings[0]
	if got.Kind != hazard.RAW {
		t.Errorf("kind = %s, want RAW", got.Kind)
	}
	if got.Addr != 4096 {
		t.Errorf("hazard at %d, want the mutated line 4096", got.Addr)
	}
}
