package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/faults"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
)

// TestGoldenCharacterizeMatchesSerial holds the engine to its correctness
// contract: for every catalog device, the parallel Characterize must be
// byte-identical — through the persist serialization, so every field counts —
// to the serial framework.Characterize it replaces.
func TestGoldenCharacterizeMatchesSerial(t *testing.T) {
	p := microbench.TestParams()
	e := New(Options{Workers: 4})
	for _, cfg := range devices.All() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			serial, err := framework.Characterize(context.Background(), soc.New(cfg), p)
			if err != nil {
				t.Fatal(err)
			}
			par, err := e.Characterize(context.Background(), cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			want := marshalChar(t, serial)
			got := marshalChar(t, par)
			if !bytes.Equal(got, want) {
				t.Errorf("parallel characterization of %s diverges from serial:\nserial: %s\nengine: %s",
					cfg.Name, want, got)
			}
		})
	}
}

// TestGoldenExploreMatchesSerial runs every device x app x model combination
// (3 x 3 x 5 = 45) through both the serial framework.Explore and the engine's
// parallel Explore and requires byte-identical JSON — same measurements, same
// ranking, same tie-breaks.
func TestGoldenExploreMatchesSerial(t *testing.T) {
	models := comm.AllModels()
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			cfg, app := cfg, app
			t.Run(cfg.Name+"/"+app, func(t *testing.T) {
				w, err := catalog.ByName(app, catalog.Quick)
				if err != nil {
					t.Fatal(err)
				}
				serial, err := framework.Explore(soc.New(cfg), w, models)
				if err != nil {
					t.Fatal(err)
				}
				e := New(Options{Workers: 4})
				par, err := e.Explore(context.Background(), cfg, w, models)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(serial)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(par)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("parallel exploration diverges from serial:\nserial: %s\nengine: %s", want, got)
				}
			})
		}
	}
}

// TestGoldenAdviseMatchesSerial checks the full advisory path end to end: the
// engine's Advise must agree with the serial
// Characterize+AdviseWorkload composition for every device x app pair and
// every current model the flow accepts — sc profiles once, um and zc profile
// under SC and under the current model.
func TestGoldenAdviseMatchesSerial(t *testing.T) {
	p := microbench.TestParams()
	e := New(Options{Workers: 4})
	for _, cfg := range devices.All() {
		char, err := framework.Characterize(context.Background(), soc.New(cfg), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range catalog.Names() {
			cfg, app := cfg, app
			t.Run(cfg.Name+"/"+app, func(t *testing.T) {
				w, err := catalog.ByName(app, catalog.Quick)
				if err != nil {
					t.Fatal(err)
				}
				for _, current := range []string{"sc", "um", "zc"} {
					t.Run(current, func(t *testing.T) {
						serial, err := framework.AdviseWorkload(context.Background(), char, soc.New(cfg), w, current)
						if err != nil {
							t.Fatal(err)
						}
						par, err := e.Advise(context.Background(), Request{Device: mustDevice(t, cfg, p), App: app, Scale: catalog.Quick, Current: current})
						if err != nil {
							t.Fatal(err)
						}
						want, err := json.Marshal(serial)
						if err != nil {
							t.Fatal(err)
						}
						got, err := json.Marshal(par)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("parallel advice diverges from serial:\nserial: %s\nengine: %s", want, got)
						}
					})
				}
			})
		}
	}
}

func marshalChar(t *testing.T, char framework.Characterization) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := framework.SaveCharacterization(&buf, char); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// failModel is a model whose every run fails with its name in the error.
type failModel string

func (f failModel) Name() string { return string(f) }

func (f failModel) Run(*soc.SoC, comm.Workload) (comm.Report, error) {
	return comm.Report{}, errors.New(string(f) + " failed")
}

// TestPlanErrorsMatchSerial: when several jobs of a plan fail, the serial
// and the engine runner report the same, lowest-index failure, and the
// engine keeps its "engine:" prefix on exploration errors.
func TestPlanErrorsMatchSerial(t *testing.T) {
	cfg := devices.TX2()
	w, err := catalog.ByName("shwfs", catalog.Micro)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 4})

	models := []comm.Model{comm.SC{}, failModel("first"), failModel("second")}
	_, serial := framework.Explore(soc.New(cfg), w, models)
	_, par := e.Explore(context.Background(), cfg, w, models)
	if serial == nil || par == nil || !strings.Contains(serial.Error(), "first failed") ||
		par.Error() != "engine: "+serial.Error() {
		t.Errorf("explore errors: serial %v, engine %v", serial, par)
	}

	// Every profiling run fails: both runners report job 0, the
	// classification profile, and the engine does not mistake it for a
	// characterization failure.
	p := microbench.TestParams()
	char, err := e.Characterize(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.Activate(faults.NewPlan(1, faults.Rule{Point: "profile.collect", Mode: faults.ModeError, Every: 1})); err != nil {
		t.Fatal(err)
	}
	defer faults.ResetInjected()
	defer faults.Deactivate()
	_, serial = framework.AdviseWorkload(context.Background(), char, soc.New(cfg), w, "zc")
	_, par = e.Advise(context.Background(), Request{Device: mustDevice(t, cfg, p), App: "shwfs", Scale: catalog.Micro, Current: "zc"})
	if serial == nil || !strings.Contains(serial.Error(), "classification profile") ||
		par == nil || par.Error() != serial.Error() || errors.Is(par, ErrCharacterization) {
		t.Errorf("advise errors: serial %v, engine %v", serial, par)
	}
}
