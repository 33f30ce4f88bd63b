// Command advisor is the paper's tool flow as one CLI: characterize the
// device (MB1–MB3), profile the application, walk the Fig 2 decision, and
// check the advice against the measured ranking — plus the tools around
// that flow. `advisor -h` lists the commands, `advisor <command> -h` their
// flags; docs/CLI.md is the reference.
//
// Usage:
//
//	advisor advise -device jetson-agx-xavier -app shwfs -current sc
//	advisor sweep -quick -trace trace.json
//	advisor characterize -device jetson-tx2 -save tx2.json
//	advisor trace -device jetson-tx2 -app shwfs -model zc > trace.csv
//	advisor repro -exp table1 -quick
//
// Exit status 0 on success, 1 when a command fails, 2 on a usage error
// (no or unknown command, bad flag, unknown repro experiment).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/buildinfo"
	"igpucomm/internal/microbench"
)

// runFunc runs one parsed command, writing its report to stdout.
type runFunc func(ctx context.Context, stdout, stderr io.Writer) error

// command is one `advisor <name>` subcommand. setup declares the command's
// flags on fs and returns the function that runs it once fs is parsed.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet) runFunc
}

var commands = []command{
	{"advise", "run the tuning flow (Fig 2) for one app on one device", adviseCmd},
	{"sweep", "print the measured ranking of every device x app x model combination", sweepCmd},
	{"characterize", "run the micro-benchmarks MB1-MB3 on one device and print its profile", characterizeCmd},
	{"calibrate", "fit a platform's bandwidths to measured MB1 throughputs", calibrateCmd},
	{"whatif", "sweep one device parameter and find where the best model flips", whatifCmd},
	{"trace", "export one kernel launch's coalesced transactions as CSV", traceCmd},
	{"repro", "regenerate the paper's tables and figures", reproCmd},
}

// usageError marks a command-line mistake a command finds after parsing:
// it exits 2, like a bad flag.
type usageError struct{ error }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests drive it directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("advisor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	version := fs.Bool("version", false, "print build information and exit")
	fs.Usage = func() { usage(stderr, fs) }
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Get())
		return 0
	}
	if fs.NArg() == 0 {
		usage(stderr, fs)
		return 2
	}
	var cmd *command
	for i := range commands {
		if commands[i].name == fs.Arg(0) {
			cmd = &commands[i]
		}
	}
	if cmd == nil {
		fmt.Fprintf(stderr, "advisor: unknown command %q\n", fs.Arg(0))
		usage(stderr, fs)
		return 2
	}

	cfs := flag.NewFlagSet("advisor "+cmd.name, flag.ContinueOnError)
	cfs.SetOutput(stderr)
	exec := cmd.setup(cfs)
	if err := cfs.Parse(fs.Args()[1:]); err != nil {
		return parseExit(err)
	}
	if err := exec(context.Background(), stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "advisor %s: %v\n", cmd.name, err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}

// parseExit is flag.ExitOnError's status for a failed parse: 0 for -h, 2
// for anything else.
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(w, "usage: advisor [-version] <command> [flags]  (advisor <command> -h lists its flags)")
	fmt.Fprintln(w, "\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-13s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w)
	fs.PrintDefaults()
}

// scaleFor is the one -quick decision: the micro-benchmark parameters and
// the case-study workload scale a command runs at.
func scaleFor(quick bool) (microbench.Params, catalog.Scale) {
	if quick {
		return microbench.TestParams(), catalog.Quick
	}
	return microbench.DefaultParams(), catalog.Full
}

// createWith creates path, hands it to write and closes it, reporting the
// first error.
func createWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
