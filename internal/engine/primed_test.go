package engine

import (
	"context"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/gpu"
	"igpucomm/internal/microbench"
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

// workDelta is the work a did beyond b.
func workDelta(a, b gpu.Work) gpu.Work {
	return gpu.Work{
		KernelsCompiled: a.KernelsCompiled - b.KernelsCompiled,
		ProgramsEmitted: a.ProgramsEmitted - b.ProgramsEmitted,
		WarpsDerived:    a.WarpsDerived - b.WarpsDerived,
		TxnsRecorded:    a.TxnsRecorded - b.TxnsRecorded,
		KernelsReplayed: a.KernelsReplayed - b.KernelsReplayed,
		TxnsReplayed:    a.TxnsReplayed - b.TxnsReplayed,
	}
}

// primedSweep runs the 45-combo sweep at scale sc three times on one
// engine with two workers and returns the GPU work the second and third
// sweeps each added and the evictions the third added, summed over every
// pooled clone and kernel cache.
func primedSweep(t *testing.T, sc catalog.Scale) (second, third gpu.Work, evictions int64) {
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
	// measured runs one sweep and returns what it added to the ledger.
	measured := func() poolLedger {
		t.Helper()
		before := e.pool.ledger()
		sweep()
		after := e.pool.ledger()
		// A platform built or dropped during the sweep would escape the
		// difference.
		if after.platforms != before.platforms {
			t.Fatalf("sweep changed the pool from %d to %d platforms", before.platforms, after.platforms)
		}
		return poolLedger{work: workDelta(after.work, before.work), evictions: after.evictions - before.evictions}
	}
	sweep()
	s2 := measured()
	s3 := measured()
	return s2.work, s3.work, s3.evictions
}

// TestPrimedSweepReplays pins the work of a primed sweep at catalog.Micro:
// after one sweep, every kernel the next needs is in its config's shared
// kernel cache, so in the second and third sweeps the pooled clones replay
// all 150 launches, compile nothing and evict nothing. Each replay is found
// by the scope its run declares, so no thread program is emitted either;
// fingerprinting the kernels instead emitted 31815. With a private cache
// per clone the third sweep still compiled 45 to 72 kernels, varying with
// which clone each task landed on (5 measured runs). While the cache
// dropped each key's first compile at the end of its run, the second sweep
// compiled 75 kernels and emitted 32280 programs.
func TestPrimedSweepReplays(t *testing.T) {
	second, third, evictions := primedSweep(t, catalog.Micro)
	want := gpu.Work{KernelsReplayed: 150, TxnsReplayed: 101376}
	if second != want {
		t.Errorf("second sweep: work %+v, want %+v", second, want)
	}
	if third != want || evictions != 0 {
		t.Fatalf("third sweep: work %+v, %d evictions; want %+v, 0 evictions", third, evictions, want)
	}
}

// TestPrimedSweepReplaysFullScale is TestPrimedSweepReplays at the paper's
// catalog.Full scale, where one device's kernel set outgrew a private
// cache's budget: with a private cache per clone the third sweep compiled
// 146 to 202 kernels (4 measured runs), and fingerprinting the replayed
// kernels emitted 6243900 thread programs. While the cache dropped each
// key's first compile at the end of its run, the second sweep compiled all
// 210 kernels and emitted 6245760 programs. Skipped under -short and the
// race detector; `make declared-full` runs it.
func TestPrimedSweepReplaysFullScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale sweeps: skipped under -short and -race")
	}
	second, third, evictions := primedSweep(t, catalog.Full)
	want := gpu.Work{KernelsReplayed: 420, TxnsReplayed: 23671236}
	if second != want {
		t.Errorf("second sweep: work %+v, want %+v", second, want)
	}
	if third != want || evictions != 0 {
		t.Fatalf("third sweep: work %+v, %d evictions; want %+v, 0 evictions", third, evictions, want)
	}
}

// coldCharacterize characterizes every device once at p on a fresh engine
// with two workers and returns the GPU work summed over the pool.
func coldCharacterize(t *testing.T, p microbench.Params) gpu.Work {
	t.Helper()
	e := New(Options{Workers: 2})
	for _, cfg := range devices.All() {
		if _, err := e.Characterize(context.Background(), cfg, p); err != nil {
			t.Fatal(err)
		}
	}
	return e.pool.ledger().work
}

// TestColdCharacterizeWork pins the GPU work of one cold characterization
// per device at microbench.TestParams, summed over the engine's pool: the
// compiles, the warps derived from warp templates, the transactions the
// compiles record (explicit warps' only: a derived warp is stored as a
// reference to its template) and the replays. When derived warps were
// written out in full, the same characterizations recorded 579276
// transactions; every other count is unchanged.
func TestColdCharacterizeWork(t *testing.T) {
	got := coldCharacterize(t, microbench.TestParams())
	want := gpu.Work{KernelsCompiled: 48, ProgramsEmitted: 1536, WarpsDerived: 9792, TxnsRecorded: 26604,
		KernelsReplayed: 87, TxnsReplayed: 976320}
	if got != want {
		t.Fatalf("cold characterization work %+v, want %+v", got, want)
	}
}

// TestColdCharacterizeWorkFullScale is TestColdCharacterizeWork at
// microbench.DefaultParams, the scale advisord characterizes at. When
// derived warps were written out in full, the same characterizations
// recorded 30993204 transactions, about 775 MB of cache.Access records
// and path bytes. Skipped under -short and the race detector;
// `make declared-full` runs it.
func TestColdCharacterizeWorkFullScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale characterization: skipped under -short and -race")
	}
	got := coldCharacterize(t, microbench.DefaultParams())
	want := gpu.Work{KernelsCompiled: 132, ProgramsEmitted: 4224, WarpsDerived: 1187676, TxnsRecorded: 215988,
		KernelsReplayed: 255, TxnsReplayed: 45039360}
	if got != want {
		t.Fatalf("cold characterization work %+v, want %+v", got, want)
	}
}
