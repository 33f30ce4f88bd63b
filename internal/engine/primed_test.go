package engine

import (
	"context"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/gpu"
)

// poolLedger is the simulator work summed over every platform idle in the
// pool, and the evictions summed over every pooled kernel cache.
type poolLedger struct {
	platforms int
	work      gpu.Work
	evictions int64
}

func (p *socPool) ledger() poolLedger {
	p.mu.Lock()
	defer p.mu.Unlock()
	var l poolLedger
	for _, idle := range p.socs {
		for _, s := range idle {
			w := s.GPU.Work()
			l.platforms++
			l.work.KernelsCompiled += w.KernelsCompiled
			l.work.ProgramsEmitted += w.ProgramsEmitted
			l.work.WarpsDerived += w.WarpsDerived
			l.work.TxnsRecorded += w.TxnsRecorded
			l.work.KernelsReplayed += w.KernelsReplayed
			l.work.TxnsReplayed += w.TxnsReplayed
		}
	}
	for _, kc := range p.caches {
		l.evictions += kc.Stats().Evictions
	}
	return l
}

// primedSweep runs the 45-combo sweep at scale sc three times on one
// engine with two workers and returns the GPU work and the evictions the
// third sweep added, summed over every pooled clone and kernel cache.
func primedSweep(t *testing.T, sc catalog.Scale) (gpu.Work, int64) {
	t.Helper()
	e := New(Options{Workers: 2})
	sweep := func() {
		t.Helper()
		for _, cfg := range devices.All() {
			for _, app := range catalog.Names() {
				w, err := catalog.ByName(app, sc)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Explore(context.Background(), cfg, w, comm.AllModels()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sweep()
	sweep()
	before := e.pool.ledger()
	sweep()
	after := e.pool.ledger()
	// A platform built or dropped during the third sweep would escape the
	// difference below.
	if after.platforms != before.platforms {
		t.Fatalf("third sweep changed the pool from %d to %d platforms", before.platforms, after.platforms)
	}
	a, b := after.work, before.work
	return gpu.Work{
		KernelsCompiled: a.KernelsCompiled - b.KernelsCompiled,
		ProgramsEmitted: a.ProgramsEmitted - b.ProgramsEmitted,
		WarpsDerived:    a.WarpsDerived - b.WarpsDerived,
		TxnsRecorded:    a.TxnsRecorded - b.TxnsRecorded,
		KernelsReplayed: a.KernelsReplayed - b.KernelsReplayed,
		TxnsReplayed:    a.TxnsReplayed - b.TxnsReplayed,
	}, after.evictions - before.evictions
}

// TestPrimedSweepReplays pins the work of a primed sweep at catalog.Micro:
// after two sweeps, every kernel the third needs is in its config's shared
// kernel cache, so the pooled clones replay all 150 launches, compile
// nothing and evict nothing. Each replay is found by the scope its run
// declares, so no thread program is emitted either; fingerprinting the
// kernels instead emitted 31815. With a private cache per clone the third
// sweep still compiled 45 to 72 kernels, varying with which clone each task
// landed on (5 measured runs).
func TestPrimedSweepReplays(t *testing.T) {
	work, evictions := primedSweep(t, catalog.Micro)
	want := gpu.Work{KernelsReplayed: 150, TxnsReplayed: 101376}
	if work != want || evictions != 0 {
		t.Fatalf("third sweep: work %+v, %d evictions; want %+v, 0 evictions", work, evictions, want)
	}
}

// TestPrimedSweepReplaysFullScale is TestPrimedSweepReplays at the paper's
// catalog.Full scale, where one device's kernel set outgrew a private
// cache's budget: with a private cache per clone the third sweep compiled
// 146 to 202 kernels (4 measured runs), and fingerprinting the replayed
// kernels emitted 6243900 thread programs. Skipped under -short and the
// race detector; `make declared-full` runs it.
func TestPrimedSweepReplaysFullScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale sweeps: skipped under -short and -race")
	}
	work, evictions := primedSweep(t, catalog.Full)
	want := gpu.Work{KernelsReplayed: 420, TxnsReplayed: 23671236}
	if work != want || evictions != 0 {
		t.Fatalf("third sweep: work %+v, %d evictions; want %+v, 0 evictions", work, evictions, want)
	}
}
