package microbench

// Declared-vs-undeclared differential for the affine stride declaration
// (gpu.Kernel.Stride): every kernel that declares one must compile to
// exactly the kernel its undeclared twin compiles to — the same transaction
// stream, per-SM accounting and counts — and replay to the same Result.
// The declaration is a promise the compiler does not re-check, so this
// suite is what keeps each one honest.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/gpu"
	"igpucomm/internal/mmu"
	"igpucomm/internal/soc"
)

// microbenchWorkloads are the GPU-side workloads of the characterization
// plan at p: MB1, every MB2 sweep point, MB3.
func microbenchWorkloads(p Params) []comm.Workload {
	ws := []comm.Workload{mb1Workload(p)}
	for _, f := range p.MB2Fractions {
		ws = append(ws, mb2GPUWorkload(p, f))
	}
	return append(ws, mb3Workload(p))
}

// placeAll allocates every buffer of w on s with one kind: all device
// memory (the routing SC gives a kernel) or all pinned (ZC's).
func placeAll(t *testing.T, s *soc.SoC, w comm.Workload, model string) comm.Layout {
	t.Helper()
	lay := comm.Layout{}
	for _, spec := range slices.Concat(w.In, w.Out, w.Scratch) {
		var (
			b   mmu.Buffer
			err error
		)
		if model == "zc" {
			b, err = s.AllocPinned("declared/"+spec.Name, spec.Size)
		} else {
			b, err = s.AllocDevice("declared/"+spec.Name, spec.Size)
		}
		if err != nil {
			t.Fatal(err)
		}
		lay[spec.Name] = b
	}
	return lay
}

// visitDigest is the count and SHA-256 of the kernel's transactions as
// VisitTransactions reports them, (warp, slot) tags included.
func visitDigest(t *testing.T, g *gpu.GPU, k gpu.Kernel) (int, [sha256.Size]byte) {
	t.Helper()
	h := sha256.New()
	n := 0
	var buf [6 * 8]byte
	err := g.VisitTransactions(k, func(x gpu.Txn) {
		pinned := 0
		if x.Pinned {
			pinned = 1
		}
		for i, v := range []int64{int64(x.Warp), int64(x.Instr), int64(x.Kind), int64(pinned), x.Addr, x.Size} {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		h.Write(buf[:])
		n++
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return n, sum
}

// checkDeclaredKernel compiles launch l of w declared on one SoC and
// undeclared on an identically built twin, and requires identical compiled
// kernels, visited streams and replayed Results. It returns the kernel's
// name and the warps the declared compile derived, or "" for a kernel that
// declares no stride.
func checkDeclaredKernel(t *testing.T, device string, w comm.Workload, l int, model string) (string, int64) {
	t.Helper()
	s1, err := devices.NewSoC(device)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := devices.NewSoC(device)
	declared := w.MakeKernel(placeAll(t, s1, w, model), l)
	if declared.Stride == 0 {
		return "", 0
	}
	undeclared := w.MakeKernel(placeAll(t, s2, w, model), l)
	undeclared.Stride = 0
	where := fmt.Sprintf("%s %s launch %d (%s) under %s", device, w.Name, l, declared.Name, model)

	n1, h1 := visitDigest(t, s1.GPU, declared)
	n2, h2 := visitDigest(t, s2.GPU, undeclared)
	if n1 != n2 || h1 != h2 {
		t.Fatalf("%s: visited streams differ: %d transactions (%x) declared vs %d (%x) undeclared", where, n1, h1[:6], n2, h2[:6])
	}
	before := s1.GPU.Work().WarpsDerived
	ck1, err := s1.GPU.Compile(declared)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	derived := s1.GPU.Work().WarpsDerived - before
	ck2, err := s2.GPU.Compile(undeclared)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if err := ck1.Diff(ck2); err != nil {
		t.Fatalf("%s: declared compile differs: %v", where, err)
	}
	r1, err := s1.GPU.LaunchCompiled(ck1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.GPU.LaunchCompiled(ck2)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("%s: replay differs:\ndeclared:   %+v\nundeclared: %+v", where, r1, r2)
	}
	return declared.Name, derived
}

// checkDeclaredKernels runs checkDeclaredKernel over every launch of the
// micro-benchmark workloads at p and of every catalog application at the
// given scales, under SC and ZC routing, and returns the warps derived per
// declared kernel name (level suffixes folded: orb-detect-L*).
func checkDeclaredKernels(t *testing.T, devs []string, p Params, scales ...catalog.Scale) map[string]int64 {
	t.Helper()
	ws := microbenchWorkloads(p)
	for _, sc := range scales {
		for _, name := range catalog.Names() {
			w, err := catalog.ByName(name, sc)
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, w)
		}
	}
	derived := map[string]int64{}
	for _, dev := range devs {
		for _, w := range ws {
			for l := 0; l < w.LaunchCount(); l++ {
				for _, model := range []string{"sc", "zc"} {
					name, n := checkDeclaredKernel(t, dev, w, l, model)
					if name == "" {
						continue
					}
					if i := strings.Index(name, "-L"); i >= 0 {
						name = name[:i+2] + "*"
					}
					derived[name] += n
				}
			}
		}
	}
	return derived
}

// TestDeclaredKernelsMatchUndeclared is the differential at test scale: MB1,
// MB2 and MB3 at TestParams, the case studies at catalog.Micro and Quick, on
// every device.
func TestDeclaredKernelsMatchUndeclared(t *testing.T) {
	devs := []string{devices.NanoName, devices.TX2Name, devices.XavierName}
	requireTemplated(t, checkDeclaredKernels(t, devs, TestParams(), catalog.Micro, catalog.Quick))
}

// requireTemplated pins which kernels declare a stride, and that each of
// them really derives warps from its template.
func requireTemplated(t *testing.T, derived map[string]int64) {
	t.Helper()
	want := []string{"mb1-reduce2d", "mb2-sweep", "mb3-stream", "orb-detect-L*"}
	got := make([]string, 0, len(derived))
	for name := range derived {
		got = append(got, name)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("declared kernels %v, want %v", got, want)
	}
	for name, n := range derived {
		if n == 0 {
			t.Errorf("%s declares a stride but never derives a warp", name)
		}
	}
}

// TestDeclaredKernelsFullScale is the same differential at DefaultParams
// and catalog.Full on one device — 4 M threads per MB3 stream. It runs in
// its own non-race CI step (make declared-full); -short and the race
// detector skip it.
func TestDeclaredKernelsFullScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-scale differential: skipped under -short and -race")
	}
	requireTemplated(t, checkDeclaredKernels(t, []string{devices.TX2Name}, DefaultParams(), catalog.Full))
}

// TestMB2UndividedStaysUndeclared pins the MB2 declaration's guard: with a
// thread count that does not divide the array's element count, the sweep
// kernel's index wraps inside a warp, so it must stay undeclared and
// compile the normal way — to what the reference executor runs. Forcing a
// declaration on it would change the stream, which is why the guard exists.
func TestMB2UndividedStaysUndeclared(t *testing.T) {
	p := TestParams()
	p.MB2Threads = 3000
	w := mb2GPUWorkload(p, 0.5)
	for _, model := range []string{"sc", "zc"} {
		ref, _ := devices.NewSoC(devices.TX2Name)
		s, _ := devices.NewSoC(devices.TX2Name)
		ref.GPU.SetReferenceMode(true)
		k := w.MakeKernel(placeAll(t, ref, w, model), 0)
		if k.Stride != 0 {
			t.Fatalf("%s: mb2-sweep with %d threads declares stride %d", model, p.MB2Threads, k.Stride)
		}
		want, err := ref.GPU.Launch(k)
		if err != nil {
			t.Fatal(err)
		}
		k = w.MakeKernel(placeAll(t, s, w, model), 0)
		got, err := s.GPU.Launch(k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: compiled %+v, reference %+v", model, got, want)
		}
		if s.GPU.Work().WarpsDerived != 0 {
			t.Fatalf("%s: undeclared kernel derived warps", model)
		}

		forced := k
		forced.Stride = 4
		ckForced, err := s.GPU.Compile(forced)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := s.GPU.Compile(k)
		if err != nil {
			t.Fatal(err)
		}
		if ckForced.Diff(ck) == nil {
			t.Fatalf("%s: a false declaration compiled to the true stream; the guard is untested", model)
		}
	}
}

// TestCharacterizeWork pins the GPU compile and replay work of one serial
// jetson-tx2 characterization at TestParams. Every kernel the plan compiles
// declares a stride, so each compile emits warp 0's 32 programs and derives
// the rest. Every one of the 29 launches replays a compiled kernel; the 13
// beyond the 16 compiles are later iterations of a model run served by its
// kernel cache. Before warp-template
// compilation the same run emitted 104960 thread programs over the same 16
// compiles (184224 transactions recorded). Derived warps' transactions are
// not recorded: the 8868 are the 16 warp-0 templates' own; when derived
// warps were written out in full, 193092 were. The 1496 pinned-route calls
// service 286656 pinned transactions, a run of lanes per call.
func TestCharacterizeWork(t *testing.T) {
	s, err := devices.NewSoC(devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Characterize(context.Background(), s.Name(), s.IOCoherent(), TestParams(), Serial(s)); err != nil {
		t.Fatal(err)
	}
	want := gpu.Work{KernelsCompiled: 16, ProgramsEmitted: 512, WarpsDerived: 3264, TxnsRecorded: 8868,
		KernelsReplayed: 29, TxnsReplayed: 325440, PinnedRuns: 1496}
	got := s.GPU.Work()
	if got != want {
		t.Fatalf("characterization work %+v, want %+v", got, want)
	}
	const programsBefore = 104960
	if got.ProgramsEmitted*10 >= programsBefore {
		t.Fatalf("%d thread programs emitted: not a 10x cut from %d", got.ProgramsEmitted, programsBefore)
	}
}
