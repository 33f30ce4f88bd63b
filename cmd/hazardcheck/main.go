// Command hazardcheck is the framework's verification gate. With no flags it
// statically verifies every catalogued platform × case-study application ×
// communication model: the model's buffer placement (no overlapping or empty
// allocations), the §III-C tiled schedule (per-phase CPU/GPU tile
// disjointness and barrier ordering under a vector-clock model), and a
// transaction-level replay of the kernel's coalesced trace interleaved with
// the CPU's accesses and the model's coherence protocol (RAW/WAR/WAW and
// flush-ordering hazards).
//
// With -lint-docs it checks that every exported identifier in the contract
// packages (DocPackages) carries a doc comment; with -links it checks that
// every relative markdown link (and #anchor) in
// README/DESIGN/EXPERIMENTS/ROADMAP and docs/ resolves. The Go-source gate
// is cmd/igpulint.
//
// Usage:
//
//	hazardcheck                            # verify all combinations
//	hazardcheck -device jetson-tx2 -app shwfs -model zc
//	hazardcheck -no-trace                  # schedule + layout proofs only
//	hazardcheck -lint-docs                 # exported-doc-comment gate
//	hazardcheck -links                     # markdown relative-link gate
//
// Exit status 1 when any hazard or documentation finding is reported.
package main

import (
	"flag"
	"fmt"
	"igpucomm/internal/buildinfo"
	"os"
	"path/filepath"
	"strings"

	"igpucomm/internal/analysis"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
)

// reportOrder is the order the report lists the catalog's applications in:
// the paper's case studies, then the ADAS extension. main_test.go holds it
// to catalog.Names().
var reportOrder = []string{"shwfs", "orbslam", "lanedet"}

func main() {
	lintDocs := flag.Bool("lint-docs", false, "check exported identifiers in the contract packages for doc comments")
	links := flag.Bool("links", false, "check relative markdown links in the documentation set")
	device := flag.String("device", "", "restrict to one platform (default: all)")
	app := flag.String("app", "", "restrict to one application (default: all)")
	model := flag.String("model", "", "restrict to one communication model (default: all)")
	noTrace := flag.Bool("no-trace", false, "skip the transaction-level trace replay")
	verbose := flag.Bool("v", false, "print every finding, not just the per-combination summary")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	if *lintDocs || *links {
		os.Exit(runDocGates(*lintDocs, *links))
	}
	os.Exit(runVerify(*device, *app, *model, !*noTrace, *verbose))
}

// runDocGates runs the documentation gates from the module root: exported
// doc comments in the contract packages and/or markdown link resolution.
func runDocGates(docs, links bool) int {
	cwd, err := os.Getwd()
	fatalIf(err)
	root := moduleRoot(cwd)
	var findings []analysis.Finding
	if docs {
		fs, err := analysis.LintExportedDocs(root, analysis.DocPackages())
		fatalIf(err)
		findings = append(findings, fs...)
	}
	if links {
		files, err := analysis.MarkdownFiles(root)
		fatalIf(err)
		fs, err := analysis.CheckMarkdownLinks(root, files)
		fatalIf(err)
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "hazardcheck: %d documentation finding(s)\n", n)
		return 1
	}
	fmt.Println("hazardcheck: documentation gates clean")
	return 0
}

func runVerify(device, app, model string, trace, verbose bool) int {
	devs, all := []string{}, []string{}
	for _, cfg := range devices.All() {
		all = append(all, cfg.Name)
		if device == "" || cfg.Name == device {
			devs = append(devs, cfg.Name)
		}
	}
	if len(devs) == 0 {
		fatalIf(fmt.Errorf("unknown device %q (have %s)", device, strings.Join(all, ", ")))
	}
	apps := reportOrder
	if app != "" {
		apps = []string{app}
	}
	models := comm.AllModels()
	if model != "" {
		m, err := comm.ByName(model)
		fatalIf(err)
		models = []comm.Model{m}
	}

	combos, bad := 0, 0
	for _, devName := range devs {
		for _, appName := range apps {
			w, err := catalog.ByName(appName, catalog.Full)
			fatalIf(err)
			for _, m := range models {
				s, err := devices.NewSoC(devName)
				fatalIf(err)
				combos++

				rep, err := comm.Verify(s, w, m)
				fatalIf(err)
				if trace {
					trep, terr := comm.TraceCheck(s, w, m, 0)
					fatalIf(terr)
					rep.Merge(trep)
				}

				status := "ok"
				if !rep.OK() {
					status = fmt.Sprintf("%d HAZARD(S)", len(rep.Findings))
					bad++
				}
				fmt.Printf("%-18s %-8s %-9s %6d checks  %s\n",
					devName, appName, m.Name(), rep.Checked, status)
				if verbose || !rep.OK() {
					for _, f := range rep.Findings {
						fmt.Printf("    %s\n", f)
					}
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "hazardcheck: %d of %d combinations refuted\n", bad, combos)
		return 1
	}
	fmt.Printf("hazardcheck: all %d combinations verified\n", combos)
	return 0
}

// moduleRoot walks up from dir to the nearest directory containing go.mod.
// If none is found (linting a bare tree), dir itself is the root.
func moduleRoot(dir string) string {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hazardcheck:", err)
		os.Exit(1)
	}
}
