package catalog

import (
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"igpucomm/internal/comm"
	"igpucomm/internal/mmu"
)

var scales = []struct {
	name string
	sc   Scale
}{{"full", Full}, {"quick", Quick}, {"micro", Micro}}

// launchSuffix strips the per-launch part of a kernel name ("-L3", "-2"),
// leaving the kernel it is a launch of.
var launchSuffix = regexp.MustCompile(`-L?\d+$`)

// kernels returns the distinct kernels w launches per iteration.
func kernels(w comm.Workload) map[string]bool {
	lay := comm.Layout{}
	var next int64
	for _, bs := range [][]comm.BufferSpec{w.In, w.Out, w.Scratch} {
		for _, b := range bs {
			lay[b.Name] = mmu.Buffer{Name: b.Name, Addr: next, Size: b.Size}
			next += b.Size
		}
	}
	out := map[string]bool{}
	for l := 0; l < w.LaunchCount(); l++ {
		out[launchSuffix.ReplaceAllString(w.MakeKernel(lay, l).Name, "")] = true
	}
	return out
}

func TestEveryScaleBuildsAValidWorkload(t *testing.T) {
	for _, app := range Names() {
		full, err := ByName(app, Full)
		if err != nil {
			t.Fatalf("%s/full: %v", app, err)
		}
		want := kernels(full)
		for _, s := range scales {
			t.Run(app+"/"+s.name, func(t *testing.T) {
				w, err := ByName(app, s.sc)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Validate(); err != nil {
					t.Fatal(err)
				}
				if w.Name != app {
					t.Errorf("workload name %q, want %q", w.Name, app)
				}
				// Every scale keeps the full structure: at least one
				// launch of every kernel.
				if got := kernels(w); !reflect.DeepEqual(got, want) {
					t.Errorf("kernels %v, want %v", got, want)
				}
			})
		}
	}
}

func TestUnknownApplicationListsNames(t *testing.T) {
	_, err := ByName("nope", Quick)
	if err == nil {
		t.Fatal("unknown application accepted")
	}
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not list %q", err, n)
		}
	}
}

func TestUnknownScaleRejected(t *testing.T) {
	if _, err := ByName("shwfs", Micro+1); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestConcurrentFirstCallersShareOneBuild(t *testing.T) {
	var builds atomic.Int32
	m := newMemo(map[string]func(Scale) (comm.Workload, error){
		"orbslam": func(sc Scale) (comm.Workload, error) {
			builds.Add(1)
			return builders["orbslam"](sc)
		},
	})
	const callers = 16
	got := make([]comm.Workload, callers)
	errs := make([]error, callers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[i], errs[i] = m.lookup("orbslam", Quick)
		}()
	}
	start.Done()
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for %d concurrent callers, want 1", n, callers)
	}
	for i, w := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(w.In, got[0].In) || !reflect.DeepEqual(w.Out, got[0].Out) ||
			!reflect.DeepEqual(w.Scratch, got[0].Scratch) {
			t.Errorf("caller %d buffers %v %v %v differ from caller 0's", i, w.In, w.Out, w.Scratch)
		}
	}
}

func TestCallerEditsDoNotReachTheMemo(t *testing.T) {
	a, err := ByName("orbslam", Quick)
	if err != nil {
		t.Fatal(err)
	}
	want := a.In[0].Size
	a.In[0].Size = -1
	a.Out[0].Name = "edited"
	a.Scratch[0].Size = 0
	b, err := ByName("orbslam", Quick)
	if err != nil {
		t.Fatal(err)
	}
	if b.In[0].Size != want || b.Out[0].Name == "edited" || b.Scratch[0].Size == 0 {
		t.Errorf("edit leaked into the next result: %v %v %v", b.In, b.Out, b.Scratch)
	}
}

// TestWarmLookupDoesNotRebuild is the work guard behind the memo: a warm
// lookup allocates only the three buffer-slice copies, while a rebuild of
// orbslam (a functional ORB pass over a synthetic frame) allocates dozens
// of times even at Quick scale, so a per-call rebuild fails exactly rather
// than as a noisy timing.
func TestWarmLookupDoesNotRebuild(t *testing.T) {
	if _, err := ByName("orbslam", Quick); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ByName("orbslam", Quick); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("warm ByName allocates %.0f times per call, want <= 3 (the In/Out/Scratch copies)", allocs)
	}
}
