package catalog

// Differential oracle for declared kernel identity (comm.Workload.Key): the
// kernel cache replays a compiled kernel on a matching declared scope
// without emitting a program, so these tests emit every thread's program
// and check that the declaration is complete. Two fresh builds that declare
// the same scope must emit identical programs, and no param may change an
// emitted program without changing the Key.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"igpucomm/internal/apps/lanedet"
	"igpucomm/internal/apps/orbslam"
	"igpucomm/internal/apps/shwfs"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/isa"
	"igpucomm/internal/soc"
)

// keyedApp is a catalog application as the oracle drives it: its params at
// a scale, boxed for the reflection walk, and a fresh (unmemoized) build.
type keyedApp struct {
	params func(Scale) any
	build  func(any) (comm.Workload, error)
}

var keyedApps = map[string]keyedApp{
	"shwfs": {
		func(sc Scale) any { return shwfsParams(sc) },
		func(p any) (comm.Workload, error) { return shwfs.Workload(p.(shwfs.WorkloadParams)) },
	},
	"orbslam": {
		func(sc Scale) any { return orbslamParams(sc) },
		func(p any) (comm.Workload, error) { return orbslam.Workload(p.(orbslam.WorkloadParams)) },
	},
	"lanedet": {
		func(sc Scale) any { return lanedetParams(sc) },
		func(p any) (comm.Workload, error) { return lanedet.Workload(p.(lanedet.WorkloadParams)) },
	},
}

// placed is one workload placed on a fresh platform the way the run
// skeleton places it, with the scope that run declares.
type placed struct {
	w     comm.Workload
	pl    comm.Placement
	scope string
}

func place(t *testing.T, cfg soc.Config, w comm.Workload, m comm.Model) placed {
	t.Helper()
	s := soc.New(cfg)
	s.ResetState()
	pl, release, err := comm.Place(s, w.Name, w, m)
	if err != nil {
		t.Fatal(err)
	}
	release()
	return placed{w: w, pl: pl, scope: comm.LaunchScope(m, w, pl)}
}

// sameKernels reports the first launch and thread whose program, or whose
// kernel shape, differs between a and b, or nil when every thread of every
// launch emits the same program.
func sameKernels(a, b placed) error {
	if a.w.LaunchCount() != b.w.LaunchCount() {
		return fmt.Errorf("%d launches vs %d", a.w.LaunchCount(), b.w.LaunchCount())
	}
	var pa, pb isa.Program
	for l := 0; l < a.w.LaunchCount(); l++ {
		ka, kb := a.w.MakeKernel(a.pl.GPU, l), b.w.MakeKernel(b.pl.GPU, l)
		if ka.Name != kb.Name || ka.Threads != kb.Threads || ka.Stride != kb.Stride {
			return fmt.Errorf("launch %d: kernel %s/%d/%d vs %s/%d/%d", l,
				ka.Name, ka.Threads, ka.Stride, kb.Name, kb.Threads, kb.Stride)
		}
		for tid := 0; tid < ka.Threads; tid++ {
			pa.Reset()
			pb.Reset()
			ka.Program(tid, &pa)
			kb.Program(tid, &pb)
			if !slices.Equal(pa.Runs(), pb.Runs()) {
				return fmt.Errorf("launch %d (%s) thread %d: programs differ", l, ka.Name, tid)
			}
		}
	}
	return nil
}

// perturbed returns one copy of p per exported numeric field, nested
// structs included, with that field moved off its value, keyed by the
// field's path.
func perturbed(p any) map[string]any {
	out := map[string]any{}
	var walk func(t reflect.Type, path []int, name string)
	walk = func(t reflect.Type, path []int, name string) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			at := append(slices.Clone(path), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, at, name+f.Name+".")
				continue
			}
			q := reflect.New(reflect.TypeOf(p)).Elem()
			q.Set(reflect.ValueOf(p))
			v := q.FieldByIndex(at)
			switch v.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Float32, reflect.Float64:
				v.SetFloat(v.Float()*1.5 + 1)
			default:
				continue
			}
			out[name+f.Name] = q.Interface()
		}
	}
	walk(reflect.TypeOf(p), nil, "")
	return out
}

// checkDeclaredKeys runs the oracle over every catalog app at each scale.
// For every device and model, two fresh builds placed on fresh platforms
// must declare the same scope and emit the same programs. For every
// numeric param, a build with that param perturbed must either declare a
// different Key or emit, under every model on the first device, the
// programs the unperturbed build emits.
func checkDeclaredKeys(t *testing.T, devs []soc.Config, scales ...Scale) {
	t.Helper()
	for _, sc := range scales {
		for _, name := range Names() {
			app := keyedApps[name]
			p := app.params(sc)
			build := func(p any) comm.Workload {
				t.Helper()
				w, err := app.build(p)
				if err != nil {
					t.Fatalf("%s at scale %d: %v", name, sc, err)
				}
				if w.Key == "" {
					t.Fatalf("%s at scale %d declares no Key", name, sc)
				}
				return w
			}
			for _, cfg := range devs {
				for _, m := range comm.AllModels() {
					a := place(t, cfg, build(p), m)
					b := place(t, cfg, build(p), m)
					where := fmt.Sprintf("%s at scale %d on %s under %s", name, sc, cfg.Name, m.Name())
					if a.scope != b.scope {
						t.Fatalf("%s: equal builds declare scopes %q and %q", where, a.scope, b.scope)
					}
					if err := sameKernels(a, b); err != nil {
						t.Fatalf("%s: same scope, different programs: %v", where, err)
					}
				}
			}
			base := build(p)
			fields, built := perturbed(p), 0
			for field, q := range fields {
				w, err := app.build(q)
				if err != nil {
					continue // the perturbed params are invalid; nothing to run
				}
				built++
				if w.Key != base.Key {
					continue
				}
				for _, m := range comm.AllModels() {
					if err := sameKernels(place(t, devs[0], base, m), place(t, devs[0], w, m)); err != nil {
						t.Errorf("%s at scale %d: %s changes a program under %s but not the Key: %v",
							name, sc, field, m.Name(), err)
					}
				}
			}
			if len(fields) == 0 || built == 0 {
				t.Fatalf("%s at scale %d: %d numeric params, %d perturbed builds", name, sc, len(fields), built)
			}
		}
	}
}

// TestDeclaredKeys is the oracle at catalog.Micro and Quick on every
// device under every model.
func TestDeclaredKeys(t *testing.T) {
	checkDeclaredKeys(t, devices.All(), Micro, Quick)
}

// TestDeclaredKeysFullScale is the same oracle at catalog.Full, the scale
// whose primed sweeps replay 420 kernels on their declarations alone. It
// runs in its own non-race CI step (make declared-full); -short and the
// race detector skip it.
func TestDeclaredKeysFullScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-scale oracle: skipped under -short and -race")
	}
	checkDeclaredKeys(t, devices.All(), Full)
}
