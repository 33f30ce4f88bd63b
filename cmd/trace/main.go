// Command trace exports a kernel's coalesced memory-transaction trace as CSV
// — one row per transaction, in the order a launch issues them, with its
// path (cached / pinned / pinned-wc) — for external analysis or plotting.
// The kernels come from the case-study workloads; the communication model
// decides which path the transactions take.
//
// Usage:
//
//	trace -device jetson-tx2 -app shwfs -model zc -launch 0 > trace.csv
//	trace -device jetson-agx-xavier -app orbslam -model sc -launch 3 -o kernel3.csv
package main

import (
	"flag"
	"fmt"
	"igpucomm/internal/buildinfo"
	"os"
	"strings"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/mmu"
)

func main() {
	device := flag.String("device", devices.TX2Name, "platform name")
	app := flag.String("app", "shwfs", "application: "+strings.Join(catalog.Names(), ", "))
	model := flag.String("model", "sc", "buffer placement to trace under: sc or zc")
	launch := flag.Int("launch", 0, "which kernel launch to trace")
	out := flag.String("o", "", "output file (default stdout)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	w, err := catalog.ByName(*app, catalog.Full)
	fatalIf(err)
	if *launch < 0 || *launch >= w.LaunchCount() {
		fatalIf(fmt.Errorf("launch %d out of range [0, %d)", *launch, w.LaunchCount()))
	}

	s, err := devices.NewSoC(*device)
	fatalIf(err)

	// Place the buffers the way the chosen model would, then build the
	// requested launch against that layout.
	lay := comm.Layout{}
	all := append(append(append([]comm.BufferSpec{}, w.In...), w.Out...), w.Scratch...)
	for _, spec := range all {
		var (
			b  mmu.Buffer
			ae error
		)
		switch *model {
		case "zc":
			b, ae = s.AllocPinned("trace/"+spec.Name, spec.Size)
		case "sc":
			b, ae = s.AllocDevice("trace/"+spec.Name, spec.Size)
		default:
			ae = fmt.Errorf("unknown model %q (have sc, zc)", *model)
		}
		fatalIf(ae)
		lay[spec.Name] = b
	}

	kernel := w.MakeKernel(lay, *launch)
	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		fatalIf(err)
		defer f.Close()
		dst = f
	}
	fmt.Fprintf(os.Stderr, "tracing %s launch %d (%s) on %s under %s placement\n",
		*app, *launch, kernel.Name, *device, *model)
	fatalIf(s.GPU.TraceTransactions(kernel, dst))
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}
