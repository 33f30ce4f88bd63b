package cache

// Property suite for the batch cache kernel: DoBatch must be byte-identical
// to the serial Do loop for any access sequence, and both must classify
// hits, misses and writebacks exactly like the naive refCache specification
// (reference_test.go). The streams are seeded, so a failure reproduces.

import (
	"testing"
)

// xorshift is the seeded generator all property streams draw from.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// streamGeometries are the cache shapes the property streams cycle through:
// direct-mapped, typical set-associative, near-fully-associative, wide-line.
var streamGeometries = []Config{
	{Name: "dm", Size: 1024, LineSize: 64, Ways: 1, HitLatency: 1},
	{Name: "sa4", Size: 4096, LineSize: 64, Ways: 4, HitLatency: 2},
	{Name: "fa", Size: 512, LineSize: 32, Ways: 8, HitLatency: 1},
	{Name: "wide", Size: 8192, LineSize: 128, Ways: 2, HitLatency: 3},
}

// genStream produces one access stream with a mixed pattern: sequential,
// strided (the stride mutates mid-stream), and random, with sizes from one
// byte to multiple lines.
func genStream(rng *xorshift, n int) []Access {
	accs := make([]Access, 0, n)
	mode := rng.next() % 3
	addr := int64(rng.next() % 4096)
	stride := int64(rng.next()%300) + 1
	for i := 0; i < n; i++ {
		switch mode {
		case 0: // sequential
			addr += int64(rng.next()%64) + 1
		case 1: // strided
			addr += stride
			if rng.next()%16 == 0 {
				stride = int64(rng.next()%300) + 1
			}
		default: // random
			addr = int64(rng.next() % 16384)
		}
		size := int64(rng.next()%160) + 1
		kind := Read
		if rng.next()%3 == 0 {
			kind = Write
		}
		accs = append(accs, Access{Addr: addr % 16384, Size: size, Kind: kind})
	}
	return accs
}

// TestBatchPropertySeededStreams drives 1000 seeded streams of mixed
// strides and sizes through three implementations — DoBatch, the serial Do
// loop, and the refCache specification — and requires byte-identical
// results from the first two and identical hit/writeback classification
// from the third.
func TestBatchPropertySeededStreams(t *testing.T) {
	run := func(seed uint64) {
		rng := xorshift(seed)
		cfg := streamGeometries[rng.next()%uint64(len(streamGeometries))]
		serialSink := &countingSink{}
		batchSink := &countingSink{}
		serial := New(cfg, serialSink)
		batch := New(cfg, batchSink)
		ref := newRefCache(cfg.Size, cfg.LineSize, cfg.Ways)
		refWritebacks := 0

		accs := genStream(&rng, 40)
		wantOut := make([]Result, len(accs))
		gotOut := make([]Result, len(accs))
		var scratch Batch

		// Reference classification per touched line.
		refHits := make([]int, len(accs))
		for i, a := range accs {
			hits, wbs := ref.do(a)
			refHits[i] = hits
			refWritebacks += wbs
		}

		for i, a := range accs {
			before := serial.Stats().Hits()
			wantOut[i] = serial.Do(a)
			if got := int(serial.Stats().Hits() - before); got != refHits[i] {
				t.Fatalf("seed %#x access %d (%+v): serial %d line-hits, ref %d", seed, i, a, got, refHits[i])
			}
		}
		batch.DoBatch(accs, gotOut, &scratch)

		for i := range accs {
			if gotOut[i] != wantOut[i] {
				t.Fatalf("seed %#x access %d (%+v): batch %+v, serial %+v",
					seed, i, accs[i], gotOut[i], wantOut[i])
			}
		}
		if bs, ss := batch.Stats(), serial.Stats(); bs != ss {
			t.Fatalf("seed %#x: stats diverge:\nbatch:  %+v\nserial: %+v", seed, bs, ss)
		}
		if batchSink.writebacks != serialSink.writebacks || batchSink.writebacks != refWritebacks {
			t.Fatalf("seed %#x: writebacks batch=%d serial=%d ref=%d",
				seed, batchSink.writebacks, serialSink.writebacks, refWritebacks)
		}
		if batch.ResidentLines() != serial.ResidentLines() ||
			batch.ResidentLines() != int64(len(ref.resident())) {
			t.Fatalf("seed %#x: resident batch=%d serial=%d ref=%d",
				seed, batch.ResidentLines(), serial.ResidentLines(), len(ref.resident()))
		}
	}
	for seed := uint64(1); seed <= 1000; seed++ {
		run(seed*0x9e3779b97f4a7c15 + 1)
	}
}

// TestBatchHierarchyMatchesSerial pushes seeded streams through a two-level
// hierarchy (the GPU's L1-over-LLC shape) — the batch path recurses into the
// lower cache's own batch kernel, and every latency and counter must still
// match the serial recursion exactly. Every other seed passes nil scratch,
// which DoBatch replaces with its own.
func TestBatchHierarchyMatchesSerial(t *testing.T) {
	build := func() (*Cache, *Cache, *countingSink) {
		sink := &countingSink{}
		llc := New(Config{Name: "llc", Size: 8192, LineSize: 64, Ways: 8, HitLatency: 10}, sink)
		l1 := New(Config{Name: "l1", Size: 1024, LineSize: 64, Ways: 2, HitLatency: 1}, llc)
		return l1, llc, sink
	}
	for seed := uint64(1); seed <= 200; seed++ {
		rng := xorshift(seed * 0xff51afd7ed558ccd)
		accs := genStream(&rng, 60)
		sl1, sllc, ssink := build()
		bl1, bllc, bsink := build()
		wantOut := make([]Result, len(accs))
		gotOut := make([]Result, len(accs))
		for i, a := range accs {
			wantOut[i] = sl1.Do(a)
		}
		var scratch *Batch
		if seed%2 == 0 {
			scratch = &Batch{}
		}
		bl1.DoBatch(accs, gotOut, scratch)
		for i := range accs {
			if gotOut[i] != wantOut[i] {
				t.Fatalf("seed %#x access %d: batch %+v, serial %+v", seed, i, gotOut[i], wantOut[i])
			}
		}
		if bl1.Stats() != sl1.Stats() || bllc.Stats() != sllc.Stats() {
			t.Fatalf("seed %#x: hierarchy stats diverge", seed)
		}
		if bsink.writebacks != ssink.writebacks {
			t.Fatalf("seed %#x: sink writebacks %d vs %d", seed, bsink.writebacks, ssink.writebacks)
		}
	}
}

// TestDoBatchZeroAlloc is the allocation gate on the batch cache kernel:
// with warmed caller-owned scratch, servicing a batch allocates nothing.
func TestDoBatchZeroAlloc(t *testing.T) {
	sink := &countingSink{}
	llc := New(Config{Name: "llc", Size: 8192, LineSize: 64, Ways: 8, HitLatency: 10}, sink)
	l1 := New(Config{Name: "l1", Size: 1024, LineSize: 64, Ways: 2, HitLatency: 1}, llc)
	rng := xorshift(0xabcdef)
	accs := genStream(&rng, 64)
	out := make([]Result, len(accs))
	var scratch Batch
	l1.DoBatch(accs, out, &scratch) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		l1.DoBatch(accs, out, &scratch)
	})
	if allocs != 0 {
		t.Fatalf("warm DoBatch allocates %v times per run, want 0", allocs)
	}
}
