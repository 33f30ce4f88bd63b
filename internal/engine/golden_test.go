package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
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
// engine's Characterize+AdviseWith must agree with the serial
// Characterize+AdviseWorkload composition for every device x app pair.
func TestGoldenAdviseMatchesSerial(t *testing.T) {
	p := microbench.TestParams()
	e := New(Options{Workers: 4})
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			cfg, app := cfg, app
			t.Run(cfg.Name+"/"+app, func(t *testing.T) {
				w, err := catalog.ByName(app, catalog.Quick)
				if err != nil {
					t.Fatal(err)
				}
				char, err := framework.Characterize(context.Background(), soc.New(cfg), p)
				if err != nil {
					t.Fatal(err)
				}
				serial, err := framework.AdviseWorkload(context.Background(), char, soc.New(cfg), w, "sc")
				if err != nil {
					t.Fatal(err)
				}
				par, err := advise(context.Background(), e, Request{Config: cfg, Params: p, Workload: w, Current: "sc"})
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
