package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
)

// TestRunUsageAndExitCodes drives the dispatcher: usage errors exit 2 with
// the usage on stderr, -version and -h exit 0, a failing command exits 1.
func TestRunUsageAndExitCodes(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		code       int
		stderr     string // substring
		stdoutSome bool   // stdout must be non-empty
	}{
		{name: "no command", args: nil, code: 2, stderr: "usage: advisor"},
		{name: "unknown command", args: []string{"explain"}, code: 2, stderr: `unknown command "explain"`},
		{name: "old mode flag", args: []string{"-sweep"}, code: 2, stderr: "usage: advisor"},
		{name: "version", args: []string{"-version"}, code: 0, stdoutSome: true},
		{name: "help", args: []string{"-h"}, code: 0, stderr: "characterize"},
		{name: "command help", args: []string{"trace", "-h"}, code: 0, stderr: "-launch"},
		{name: "bad command flag", args: []string{"advise", "-nope"}, code: 2, stderr: "-nope"},
		{name: "unknown experiment", args: []string{"repro", "-exp", "table9", "-quick"}, code: 2,
			stderr: `advisor repro: unknown experiment "table9"`},
		{name: "nothing to calibrate", args: []string{"calibrate", "-quick"}, code: 1,
			stderr: "advisor calibrate: nothing to fit"},
		{name: "launch out of range", args: []string{"trace", "-launch", "-1"}, code: 1, stderr: "out of range"},
		{name: "unknown model", args: []string{"trace", "-model", "dma"}, code: 1, stderr: `unknown model "dma"`},
		{name: "unknown device", args: []string{"characterize", "-device", "pi5"}, code: 1, stderr: "advisor characterize:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, c.code, stderr.String())
			}
			if c.stdoutSome != (stdout.Len() > 0) {
				t.Errorf("stdout = %q", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), c.stderr)
			}
		})
	}
}

// TestCommandFlags pins every command's flag names and defaults — those of
// the standalone binary it replaced — so a new knob shows up as a visible
// diff here. sweep keeps only the flags the old -sweep mode read; -version
// is the dispatcher's alone.
func TestCommandFlags(t *testing.T) {
	want := map[string][]string{
		"advise": {"app=shwfs", "char=", "current=sc", "device=jetson-agx-xavier", "heatmap=",
			"quick=false", "trace=", "verify=false", "workers=0"},
		"sweep":        {"heatmap=", "quick=false", "trace=", "workers=0"},
		"characterize": {"device=jetson-agx-xavier", "quick=false", "save="},
		"calibrate":    {"base=jetson-tx2", "quick=false", "sc=0", "tol=0.05", "workers=0", "zc=0"},
		"whatif":       {"app=shwfs", "axis=io", "base=jetson-tx2", "max=64", "min=1", "steps=7"},
		"trace":        {"app=shwfs", "device=jetson-tx2", "launch=0", "model=sc", "o="},
		"repro":        {"exp=all", "format=text", "quick=false"},
	}
	got := map[string][]string{}
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.setup(fs)
		fs.VisitAll(func(f *flag.Flag) {
			got[c.name] = append(got[c.name], f.Name+"="+f.DefValue)
		})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("command flags changed:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestTracePlacesLikeTheModel pins the trace CSV to each model's own
// placement: every transaction must land in a buffer of the kernels' view
// of the model's plan as its run places it. Under sc that is the device
// partition after the host staging buffers, not a layout the exporter
// invents.
func TestTracePlacesLikeTheModel(t *testing.T) {
	const device, app = devices.TX2Name, "lanedet"
	w, err := catalog.ByName(app, catalog.Full)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range comm.AllModels() {
		t.Run(m.Name(), func(t *testing.T) {
			s, err := devices.NewSoC(device)
			if err != nil {
				t.Fatal(err)
			}
			pl, release, err := comm.Place(s, "want", w, m)
			if err != nil {
				t.Fatal(err)
			}
			release()

			var out, stderr bytes.Buffer
			if code := run([]string{"trace", "-device", device, "-app", app, "-model", m.Name()}, &out, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			rows, err := csv.NewReader(&out).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) < 2 || strings.Join(rows[0], ",") != "warp,instr,kind,path,addr,size" {
				t.Fatalf("unexpected CSV head: %v", rows[:min(len(rows), 2)])
			}
			outside := 0
			for _, r := range rows[1:] {
				addr, err := strconv.ParseInt(r[4], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				in := false
				for _, b := range pl.GPU {
					in = in || (addr >= b.Addr && addr < b.Addr+b.Size)
				}
				if !in {
					outside++
				}
			}
			if outside > 0 {
				t.Errorf("%d of %d transactions fall outside the %s plan's kernel view %v",
					outside, len(rows)-1, m.Name(), pl.GPU)
			}
		})
	}
}
