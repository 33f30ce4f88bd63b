package engine

import (
	"context"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/cache"
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
			l.work.PinnedRuns += w.PinnedRuns
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
		PinnedRuns:      a.PinnedRuns - b.PinnedRuns,
	}
}

// levelWork is one cache level's demand traffic and replacements.
type levelWork struct {
	Reads, Writes, Hits, Evictions, Writebacks int64
}

func (l *levelWork) add(s cache.Stats) {
	l.Reads += s.Reads
	l.Writes += s.Writes
	l.Hits += s.Hits()
	l.Evictions += s.Evictions
	l.Writebacks += s.Writebacks
}

// cacheWork is the simulated work a sweep's Reports record: the GPU L1s'
// and LLC's traffic and the CPU's retired instructions.
type cacheWork struct {
	GPUL1, GPULLC levelWork
	CPUInstrs     int64
}

// sweepLedger is what one measured sweep added: the GPU work and
// kernel-cache evictions over the pool, and the cache work of its Reports.
type sweepLedger struct {
	work      gpu.Work
	evictions int64
	caches    cacheWork
}

// primedSweep runs the 45-combo sweep at scale sc three times on one
// engine with two workers and returns what the second and third sweeps
// each added, summed over every pooled clone and kernel cache and over
// every Report.
func primedSweep(t *testing.T, sc catalog.Scale) (second, third sweepLedger) {
	t.Helper()
	e := New(Options{Workers: 2})
	// Give every device its two platforms up front. Otherwise a device whose
	// jobs never overlapped in the first sweep builds its second platform in
	// a measured one, depending on scheduling.
	for _, cfg := range devices.All() {
		s1, k1 := e.pool.get(cfg)
		s2, k2 := e.pool.get(cfg)
		e.pool.put(k1, s1, nil)
		e.pool.put(k2, s2, nil)
	}
	sweep := func() cacheWork {
		t.Helper()
		var cw cacheWork
		for _, cfg := range devices.All() {
			for _, app := range catalog.Names() {
				w, err := catalog.ByName(app, sc)
				if err != nil {
					t.Fatal(err)
				}
				exp, err := e.Explore(context.Background(), cfg, w, comm.AllModels())
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range exp.Ranked {
					cw.GPUL1.add(c.Report.GPU.L1)
					cw.GPULLC.add(c.Report.GPU.LLC)
					cw.CPUInstrs += c.Report.CPUInstrs
				}
			}
		}
		return cw
	}
	// measured runs one sweep and returns what it added to the ledger.
	measured := func() sweepLedger {
		t.Helper()
		before := e.pool.ledger()
		cw := sweep()
		after := e.pool.ledger()
		// A platform built or dropped during the sweep would escape the
		// difference.
		if after.platforms != before.platforms {
			t.Fatalf("sweep changed the pool from %d to %d platforms", before.platforms, after.platforms)
		}
		return sweepLedger{work: workDelta(after.work, before.work), evictions: after.evictions - before.evictions, caches: cw}
	}
	sweep()
	return measured(), measured()
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
// compiled 75 kernels and emitted 32280 programs. The pinned route takes a
// run per call (PinnedRuns); it took one call per pinned transaction, 62400.
//
// The same two sweeps' Reports pin the cache work exactly: any change to
// the cache model's hits, victims or writebacks moves these counters. At
// this scale the LLC evicts nothing; the FullScale twin covers its
// replacements.
func TestPrimedSweepReplays(t *testing.T) {
	second, third := primedSweep(t, catalog.Micro)
	want := gpu.Work{KernelsReplayed: 150, TxnsReplayed: 101376, PinnedRuns: 5984}
	if second.work != want {
		t.Errorf("second sweep: work %+v, want %+v", second.work, want)
	}
	if third.work != want || third.evictions != 0 {
		t.Errorf("third sweep: work %+v, %d evictions; want %+v, 0 evictions", third.work, third.evictions, want)
	}
	wantCaches := cacheWork{
		GPUL1:     levelWork{Reads: 7512, Writes: 11976, Hits: 17495, Evictions: 55, Writebacks: 26},
		GPULLC:    levelWork{Reads: 1305, Writes: 688, Hits: 1165},
		CPUInstrs: 48300,
	}
	for i, s := range []sweepLedger{second, third} {
		if s.caches != wantCaches {
			t.Errorf("sweep %d: cache work %+v, want %+v", i+2, s.caches, wantCaches)
		}
	}
}

// TestPrimedSweepReplaysFullScale is TestPrimedSweepReplays at the paper's
// catalog.Full scale, where one device's kernel set outgrew a private
// cache's budget: with a private cache per clone the third sweep compiled
// 146 to 202 kernels (4 measured runs), and fingerprinting the replayed
// kernels emitted 6243900 thread programs. While the cache dropped each
// key's first compile at the end of its run, the second sweep compiled all
// 210 kernels and emitted 6245760 programs. The pinned route took one call
// per pinned transaction, 12055200, where it now takes one per run. Its Reports' cache work is
// pinned as well; at this scale the LLC's replacement path runs too.
// Skipped under -short and the race detector; `make declared-full` runs it.
func TestPrimedSweepReplaysFullScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale sweeps: skipped under -short and -race")
	}
	second, third := primedSweep(t, catalog.Full)
	want := gpu.Work{KernelsReplayed: 420, TxnsReplayed: 23671236, PinnedRuns: 2235886}
	if second.work != want {
		t.Errorf("second sweep: work %+v, want %+v", second.work, want)
	}
	if third.work != want || third.evictions != 0 {
		t.Errorf("third sweep: work %+v, %d evictions; want %+v, 0 evictions", third.work, third.evictions, want)
	}
	wantCaches := cacheWork{
		GPUL1:     levelWork{Reads: 1011144, Writes: 4796874, Hits: 4630958, Evictions: 1138492, Writebacks: 372687},
		GPULLC:    levelWork{Reads: 795945, Writes: 381115, Hits: 181050, Evictions: 813878, Writebacks: 348799},
		CPUInstrs: 38055120,
	}
	for i, s := range []sweepLedger{second, third} {
		if s.caches != wantCaches {
			t.Errorf("sweep %d: cache work %+v, want %+v", i+2, s.caches, wantCaches)
		}
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
// transactions; every other count is unchanged. PinnedRuns counts the calls
// into the pinned route: it takes a run of lanes per call, where it took one
// per pinned transaction, 859968 of them.
func TestColdCharacterizeWork(t *testing.T) {
	got := coldCharacterize(t, microbench.TestParams())
	want := gpu.Work{KernelsCompiled: 48, ProgramsEmitted: 1536, WarpsDerived: 9792, TxnsRecorded: 26604,
		KernelsReplayed: 87, TxnsReplayed: 976320, PinnedRuns: 32626}
	if got != want {
		t.Fatalf("cold characterization work %+v, want %+v", got, want)
	}
}

// TestColdCharacterizeWorkFullScale is TestColdCharacterizeWork at
// microbench.DefaultParams, the scale advisord characterizes at. When
// derived warps were written out in full, the same characterizations
// recorded 30993204 transactions, about 775 MB of cache.Access records
// and path bytes. The pinned route took one call per pinned transaction,
// 38860032 of them, where it now takes one per run. Skipped under -short
// and the race detector; `make declared-full` runs it.
func TestColdCharacterizeWorkFullScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale characterization: skipped under -short and -race")
	}
	got := coldCharacterize(t, microbench.DefaultParams())
	want := gpu.Work{KernelsCompiled: 132, ProgramsEmitted: 4224, WarpsDerived: 1187676, TxnsRecorded: 215988,
		KernelsReplayed: 255, TxnsReplayed: 45039360, PinnedRuns: 1531022}
	if got != want {
		t.Fatalf("cold characterization work %+v, want %+v", got, want)
	}
}
