package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
)

// traceCmd exports one kernel launch's coalesced memory-transaction trace
// as CSV — one row per transaction, in the order the launch issues them,
// with its path (cached / pinned / pinned-wc) — for external analysis or
// plotting. The kernels come from the case-study workloads, built against
// the chosen model's placement (comm.Place): the same addresses its run
// issues and comm.TraceCheck replays.
func traceCmd(fs *flag.FlagSet) runFunc {
	device := fs.String("device", devices.TX2Name, "platform name")
	app := fs.String("app", "shwfs", "application: "+strings.Join(catalog.Names(), ", "))
	model := fs.String("model", "sc", "communication model whose buffer placement to trace under: sc, sc-async, um, zc, hybrid")
	launch := fs.Int("launch", 0, "which kernel launch to trace")
	outPath := fs.String("o", "", "output file (default stdout)")
	return func(_ context.Context, stdout, stderr io.Writer) error {
		w, err := catalog.ByName(*app, catalog.Full)
		if err != nil {
			return err
		}
		if *launch < 0 || *launch >= w.LaunchCount() {
			return fmt.Errorf("launch %d out of range [0, %d)", *launch, w.LaunchCount())
		}
		m, err := comm.ByName(*model)
		if err != nil {
			return err
		}
		s, err := devices.NewSoC(*device)
		if err != nil {
			return err
		}
		pl, release, err := comm.Place(s, "trace/"+w.Name, w, m)
		if err != nil {
			return err
		}
		defer release()

		kernel := w.MakeKernel(pl.GPU, *launch)
		fmt.Fprintf(stderr, "tracing %s launch %d (%s) on %s under %s placement\n",
			*app, *launch, kernel.Name, *device, *model)
		if *outPath == "" {
			return s.GPU.TraceTransactions(kernel, stdout)
		}
		return createWith(*outPath, func(dst io.Writer) error { return s.GPU.TraceTransactions(kernel, dst) })
	}
}
