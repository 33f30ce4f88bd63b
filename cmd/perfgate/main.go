// Command perfgate is the performance gate: it runs the declared perfbench
// suite into a schema-versioned BENCH_<timestamp>.json artifact, prints the
// per-scenario table, and checks the artifact against the declared
// cross-scenario Relations (perfbench.DefaultRelations): ordering invariants
// like "sweep/engine beats sweep/serial" and the batch core's absolute
// 5x-vs-seed cap on sweep/engine-batch. Wall-clock medians are host-
// dependent, so they are recorded as a trajectory, not gated; the exact
// work counts are pinned by the engine and framework tests.
//
// Usage:
//
//	perfgate -run -quick                       # run the quick suite, write BENCH_<ts>.json
//	perfgate -run -iterations 10 -out my.json  # full scale, explicit artifact path
//
// Exit status: 0 on success, 1 when a relation is violated, 2 on usage or
// I/O errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"igpucomm/internal/buildinfo"
	"igpucomm/internal/perfbench"
)

func main() {
	run := flag.Bool("run", false, "run the benchmark suite and write an artifact")
	quick := flag.Bool("quick", false, "reduced micro-benchmark and workload scale")
	iterations := flag.Int("iterations", 5, "timed iterations per scenario")
	warmup := flag.Int("warmup", 1, "untimed warmup rounds before measurement")
	workers := flag.Int("workers", 0, "engine simulation parallelism (0 = GOMAXPROCS)")
	out := flag.String("out", "", "artifact path for -run (default BENCH_<timestamp>.json)")
	verbose := flag.Bool("v", false, "print per-round progress while running")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}
	if !*run {
		fmt.Fprintln(os.Stderr, "perfgate: nothing to do; pass -run")
		flag.Usage()
		os.Exit(2)
	}
	path := *out
	if path == "" {
		path = perfbench.ArtifactName(time.Now())
	}
	os.Exit(runSuite(*quick, *iterations, *warmup, *workers, path, *verbose))
}

func runSuite(quick bool, iterations, warmup, workers int, path string, verbose bool) int {
	suite, err := perfbench.DefaultSuite(perfbench.SuiteOptions{Quick: quick, Workers: workers})
	if err != nil {
		fatal(err)
	}
	opts := perfbench.RunOptions{
		Iterations: iterations,
		Warmup:     warmup,
		Quick:      quick,
	}
	if verbose {
		opts.Progress = os.Stderr
	}
	artifact, err := perfbench.Run(context.Background(), suite, opts)
	if err != nil {
		fatal(err)
	}
	if err := artifact.WriteFile(path); err != nil {
		fatal(err)
	}
	fmt.Print(perfbench.FormatTable(artifact))
	results, violations := perfbench.CheckRelations(artifact, perfbench.DefaultRelations())
	fmt.Print(perfbench.FormatRelations(results, violations))
	fmt.Printf("wrote %s\n", path)
	if violations > 0 {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
	os.Exit(2)
}
