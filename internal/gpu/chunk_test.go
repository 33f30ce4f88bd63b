package gpu

// Tests for the chunked transaction stream: replay groups split at chunk
// boundaries must stay byte-identical to the reference executor, replay
// scratch must stay bounded by one chunk, the fused lane check must keep the
// reference's error text and discovery order, and the kernel cache must
// account for every chunk an entry owns.

import (
	"reflect"
	"testing"

	"igpucomm/internal/heatmap"
	"igpucomm/internal/isa"
)

// pathAt returns the path byte of global transaction i.
func (ck *CompiledKernel) pathAt(i int) uint8 {
	return ck.chunks[i>>chunkShift].paths[i&chunkMask]
}

// chunkFlipKernel issues one 4-byte load per thread per slot, 64 slots, over
// 2 SMs × 16 resident warps (1024 threads). Every slot of a resident batch
// is 16 warps × 32 uncoalesced-or-distinct-line transactions = 512, so a
// chunk is exactly 16 slots of one SM. Slots [0,16) read the pinned window,
// [16,24) and [32,64) cacheable lines, [24,32) pinned again: on each SM the
// path flips at slot 16 (a chunk boundary), 24 (mid-chunk) and 32 (a chunk
// boundary). When store is set, every fourth slot stores instead, adding
// write-combined pinned writes and dirty cached lines to the stream.
func chunkFlipKernel(store bool) Kernel {
	return Kernel{Name: "chunkflip", Threads: 1024, Program: func(tid int, p *isa.Program) {
		for j := 0; j < 64; j++ {
			var addr int64
			if j < 16 || (j >= 24 && j < 32) {
				addr = pinnedBase + (int64(tid)*4+int64(j)*512)%8192
			} else {
				addr = int64(tid)*64 + int64(j%5)*65536
			}
			if store && j%4 == 3 {
				p.St(addr, 4)
			} else {
				p.Ld(addr, 4)
			}
			p.Compute(isa.FMA, 2)
		}
	}}
}

// TestChunkBoundaryDifferential replays kernels whose streams span several
// chunks, with cached↔pinned path flips both exactly at a chunk boundary
// and inside a chunk, and requires the compiled path to match the reference
// executor byte for byte: results, cumulative L1/LLC/DRAM counters, and
// heat records.
func TestChunkBoundaryDifferential(t *testing.T) {
	for _, store := range []bool{false, true} {
		for _, heat := range []bool{false, true} {
			ref, batch := twinGPUs()
			if heat {
				ref.SetHeat(heatmap.New(1<<24, 4096))
				batch.SetHeat(heatmap.New(1<<24, 4096))
			}
			k := chunkFlipKernel(store)

			ck, err := batch.Compile(k)
			if err != nil {
				t.Fatal(err)
			}
			n := int(ck.Transactions())
			if n < 3*chunkLen {
				t.Fatalf("store=%v: stream of %d transactions spans fewer than 3 chunks", store, n)
			}
			var atBoundary, inside bool
			for i := 1; i < n; i++ {
				if ck.pathAt(i) != ck.pathAt(i-1) {
					if i&chunkMask == 0 {
						atBoundary = true
					} else {
						inside = true
					}
				}
			}
			if !store && (!atBoundary || !inside) {
				t.Fatalf("kernel lacks the intended path flips: at chunk boundary %v, inside a chunk %v", atBoundary, inside)
			}

			for run := 0; run < 2; run++ { // cold, then warm caches
				want, err := ref.Launch(k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := batch.LaunchCompiled(ck)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("store=%v heat=%v run %d: result divergence:\nreference: %+v\nbatch:     %+v", store, heat, run, want, got)
				}
				if a, b := ref.L1Stats(), batch.L1Stats(); a != b {
					t.Fatalf("L1 counters diverge: %+v vs %+v", a, b)
				}
				if a, b := ref.LLC().Stats(), batch.LLC().Stats(); a != b {
					t.Fatalf("LLC counters diverge: %+v vs %+v", a, b)
				}
				if a, b := ref.dramPath.Stats(), batch.dramPath.Stats(); a != b {
					t.Fatalf("DRAM counters diverge: %+v vs %+v", a, b)
				}
				if a, b := ref.pinnedPath.Stats(), batch.pinnedPath.Stats(); a != b {
					t.Fatalf("pinned counters diverge: %+v vs %+v", a, b)
				}
				if heat && !reflect.DeepEqual(ref.heat, batch.heat) {
					t.Fatalf("store=%v run %d: heat records diverge", store, run)
				}
			}
		}
	}
}

// TestReplayScratchBoundedByChunk replays a kernel with more than 4 chunks
// of pinned transactions — one long same-path run — and requires the replay
// result scratch to stay within one chunk.
func TestReplayScratchBoundedByChunk(t *testing.T) {
	_, g := twinGPUs()
	k := Kernel{Name: "pinned-run", Threads: 2048, Program: func(tid int, p *isa.Program) {
		for j := 0; j < 20; j++ {
			p.Ld(pinnedBase+(int64(tid)*4+int64(j)*64)%8192, 4)
		}
	}}
	res, err := g.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions <= 4*chunkLen {
		t.Fatalf("kernel issued %d transactions, want more than %d", res.Transactions, 4*chunkLen)
	}
	if c := cap(g.replay.outs); c > chunkLen {
		t.Fatalf("replay result scratch grew to %d entries, want at most chunkLen %d", c, chunkLen)
	}
}

// TestLaneCheckMatchesReference pins the fused convergence/lockstep check to
// the reference executor's verdicts and exact error text, including which
// lane is reported when several differ, and requires Nop-masked convergent
// warps to be accepted with identical results.
func TestLaneCheckMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		prog func(tid int, p *isa.Program)
		want string // "" means the kernel is valid
	}{
		{"lendiv", func(tid int, p *isa.Program) {
			p.Compute(isa.FMA, 1+tid%2)
		}, "kernel lendiv: warp 0 diverges: lane 0 has 1 instrs, lane 1 has 2"},
		{"opdiv", func(tid int, p *isa.Program) {
			p.Ld(int64(tid)*4, 4)
			if tid == 5 {
				p.Compute(isa.AddS32, 1)
			} else {
				p.Compute(isa.FMA, 1)
			}
		}, "kernel opdiv: warp 0 instr 1 diverges: lane 0 fma.rn vs lane 5 add.s32"},
		{"firstlane", func(tid int, p *isa.Program) {
			// Lane 3 is masked (legal), lane 9 diverges in opcode and lane
			// 12 in length: the opcode divergence is discovered first.
			p.Compute(isa.FMA, 2)
			switch {
			case tid%32 == 3:
				p.PadTo(p.Len() + 1)
			case tid%32 == 9:
				p.Compute(isa.MulF32, 1)
			default:
				p.Ld(int64(tid)*4, 4)
			}
			if tid%32 == 12 {
				p.Compute(isa.FMA, 1)
			}
		}, "kernel firstlane: warp 0 instr 2 diverges: lane 0 ld.global vs lane 9 mul.f32"},
		{"masked", func(tid int, p *isa.Program) {
			// Odd lanes sit out two loads as one two-slot Nop run, so their
			// run boundaries differ from lane 0's (no lockstep) yet the
			// warp converges.
			p.Compute(isa.FMA, 3)
			if tid%2 == 1 {
				p.PadTo(p.Len() + 2)
			} else {
				p.Ld(int64(tid)*8, 8)
				p.Ld(int64(tid)*8+2048, 8)
			}
			p.Compute(isa.FMA, 1)
			p.St(int64(tid)*4+4096, 4)
		}, ""},
		{"masked-lane0", func(tid int, p *isa.Program) {
			// Lane 0 itself is masked on the store, with run boundaries
			// matching the active lanes' (lockstep); the slot's opcode
			// comes from the first active lane.
			p.Ld(int64(tid)*4, 4)
			if tid%32 == 0 {
				p.PadTo(p.Len() + 1)
			} else {
				p.St(pinnedBase+int64(tid)*4, 4)
			}
		}, ""},
		{"masked-lane0-div", func(tid int, p *isa.Program) {
			// Lane 0 is masked, so the slot's opcode is lane 1's load; the
			// even lanes' stores diverge from it.
			switch {
			case tid%32 == 0:
				p.Compute(isa.Nop, 1)
			case tid%2 == 1:
				p.Ld(int64(tid)*4, 4)
			default:
				p.St(int64(tid)*4, 4)
			}
		}, "kernel masked-lane0-div: warp 0 instr 0 diverges: lane 1 ld.global vs lane 2 st.global"},
	}
	for _, tc := range cases {
		ref, batch := twinGPUs()
		k := Kernel{Name: tc.name, Threads: 64, Program: tc.prog}
		want, errRef := ref.Launch(k)
		got, errBatch := batch.Launch(k)
		if tc.want == "" {
			if errRef != nil || errBatch != nil {
				t.Fatalf("%s: valid kernel rejected: reference %v, batch %v", tc.name, errRef, errBatch)
			}
			if got != want {
				t.Fatalf("%s: result divergence:\nreference: %+v\nbatch:     %+v", tc.name, want, got)
			}
			continue
		}
		if errRef == nil || errRef.Error() != tc.want {
			t.Fatalf("%s: reference error %v, want %q", tc.name, errRef, tc.want)
		}
		if errBatch == nil || errBatch.Error() != tc.want {
			t.Fatalf("%s: compiled error %v, want %q", tc.name, errBatch, tc.want)
		}
	}
}

// TestKernelCacheAccountsChunks pins the kernel cache's byte accounting to
// the chunks its entries own: after a kernel larger than the whole budget
// and then several small ones, the running total always equals the sum of
// the live entries' sizes, the newest entry is never evicted, and whatever
// else stays resident fits the budget.
func TestKernelCacheAccountsChunks(t *testing.T) {
	_, g := twinGPUs()
	big := Kernel{Name: "big", Threads: 1 << 20, Program: func(tid int, p *isa.Program) {
		for j := int64(0); j < 3; j++ {
			p.Ld(pinnedBase+(int64(tid)*4+j*64)%8192, 4)
		}
	}}
	small := Kernel{Name: "small", Threads: 256, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*64, 4)
		p.St(pinnedBase+int64(tid)*4, 4)
	}}
	check := func(step int, newest kernelKey) {
		t.Helper()
		var sum int64
		for _, e := range g.kcache {
			sum += e.bytes()
		}
		if g.kcacheBytes != sum {
			t.Fatalf("step %d: kcacheBytes %d, live entries hold %d", step, g.kcacheBytes, sum)
		}
		if g.kcache[newest] == nil {
			t.Fatalf("step %d: newest entry evicted", step)
		}
		if rest := sum - g.kcache[newest].bytes(); rest > kernelCacheBudget {
			t.Fatalf("step %d: entries besides the newest hold %d bytes, over budget %d", step, rest, kernelCacheBudget)
		}
		if len(g.kcache) != len(g.kcacheOrder) {
			t.Fatalf("step %d: cache map (%d) and order list (%d) out of sync", step, len(g.kcache), len(g.kcacheOrder))
		}
	}

	bigKey := kernelKey{scope: "acct", idx: 0}
	e, err := g.lookupKernel(bigKey.scope, bigKey.idx, big)
	if err != nil {
		t.Fatal(err)
	}
	if b := e.bytes(); b <= kernelCacheBudget {
		t.Fatalf("big kernel accounts %d bytes, want more than the %d budget", b, kernelCacheBudget)
	}
	if min := e.ck.Transactions() * 25; e.bytes() < min {
		t.Fatalf("big kernel accounts %d bytes for %d transactions of 25 bytes each", e.bytes(), e.ck.Transactions())
	}
	check(0, bigKey)
	for i := 1; i <= 4; i++ {
		key := kernelKey{scope: "acct", idx: i}
		if _, err := g.lookupKernel(key.scope, key.idx, small); err != nil {
			t.Fatal(err)
		}
		check(i, key)
	}
	if g.kcache[bigKey] != nil {
		t.Fatal("over-budget entry survived once newer entries arrived")
	}

	// A failed compile leaves its entry resident, and accounted, until a
	// later compile of the same key succeeds.
	bad := Kernel{Name: "bad", Threads: 64, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*64, 4)
		p.Compute(isa.FMA, 1+tid%2)
	}}
	badKey := kernelKey{scope: "acct", idx: 1}
	for step := 5; step <= 6; step++ {
		if _, err := g.lookupKernel(badKey.scope, badKey.idx, bad); err == nil {
			t.Fatal("divergent kernel compiled")
		}
		check(step, badKey)
	}
	if _, err := g.lookupKernel(badKey.scope, badKey.idx, small); err != nil {
		t.Fatal(err)
	}
	check(7, badKey)
}
