// Package analysis is the repo's own Go-source gate: a stdlib-only
// (go/parser + go/types) static-analysis framework for the invariants the
// communication framework relies on but the compiler cannot see. The
// module is loaded and type-checked as a whole (LoadModule), then every
// registered Analyzer runs over each package (RunAnalyzers); type-check
// failures surface as "typecheck" pseudo-findings rather than aborting the
// run. Ten rules (see DESIGN.md §13 for the full catalog):
//
//   - rawaddr: no arithmetic directly on a buffer's .Addr field outside
//     the memory-system packages — everything else indexes through Layout
//     accessors so placements stay opaque and verifiable.
//
//   - unitsmix: no naked + or - across unit domains (latency, bytes,
//     cycles, frequency, bandwidth). Operands are classified first by
//     their declared types in internal/units, falling back to the name
//     heuristic for untyped code; conversion must go through an explicit
//     rate (division), which the rule leaves alone.
//
//   - validatewrap: every error built inside an exported Validate method
//     must carry the package's name as its prefix ("mmu: ...") so a
//     failure surfaced three layers up still names its origin.
//
//   - ctxflow: exported functions in the engine/framework stack
//     (CtxPackages) accept context.Context first; no manufactured
//     context.Background()/TODO() roots under CtxBackgroundBanned.
//
//   - spanend: every telemetry.Start span is ended on all paths, and the
//     returned context is not discarded.
//
//   - faultpoint: faults.Register/Fire names are compile-time constants
//     declared in faults.Catalog, registered exactly once, and every
//     registration is fired somewhere.
//
//   - lockdiscipline: no lock-bearing values copied through parameters,
//     receivers or range variables; no blocking operations under a held
//     mutex in LockPackages; no mixed atomic/plain access to one field.
//
//   - allochot: no per-iteration allocations (fmt formatting, append
//     without preallocation, interface boxing, closure capture) in loops
//     inside HotPackages or under an //igpu:hot marker.
//
//   - metricname: Prometheus metric names are compile-time constants in
//     the MetricPrefix namespace, lower_snake_case, ending in a
//     recognized unit, and registered exactly once.
//
//   - timesource: no direct wall-clock reads (time.Now, time.Sleep,
//     time.After, timers, tickers) in the packages that run under the
//     deterministic simulation harness (TimePackages); time flows only
//     through the threaded Clock.
//
// Findings can be suppressed inline with
// `//igpulint:ignore <rule> <justification>` (the justification is
// mandatory; unused or bare directives are themselves findings) or
// accepted into a committed baseline (baseline.go) that cmd/igpulint
// ratchets in both directions — new findings and stale entries both fail.
//
// Two documentation rules ride alongside (docs.go), run by `hazardcheck
// -lint-docs` and `hazardcheck -links`:
//
//   - exporteddoc: exported identifiers in the contract packages
//     (DocPackages) must carry doc comments.
//
//   - mdlink: relative links (including #anchors) in the markdown
//     documentation set (MarkdownFiles) must resolve.
//
// The gate runs as `go run ./cmd/igpulint ./...` (make lint) and in CI's
// lint job. The analyzers are themselves tested against a golden fixture
// corpus under testdata/corpus (corpus_test.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string // an analyzer name (AnalyzerNames), "typecheck", "exporteddoc", "mdlink" or "igpulint"
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Config tunes the gate. The zero value disables every scoped rule; use
// DefaultConfig for the repository's committed policy.
type Config struct {
	// RawAddrAllowed lists slash-separated directory prefixes (relative to
	// the lint root) whose packages may do raw .Addr arithmetic.
	RawAddrAllowed []string

	// CtxPackages lists the directories whose exported functions must
	// accept and thread context.Context (the ctxflow rule).
	CtxPackages []string

	// CtxBackgroundBanned lists the directory prefixes where
	// context.Background()/context.TODO() are forbidden — library code
	// must thread the caller's context, never manufacture a root.
	CtxBackgroundBanned []string

	// LockPackages lists the directory prefixes where lockdiscipline
	// additionally forbids blocking operations (channel send/receive,
	// WaitGroup.Wait, time.Sleep) while a mutex is held.
	LockPackages []string

	// HotPackages lists the directory prefixes whose every function is
	// treated as hot by allochot; elsewhere only functions carrying an
	// //igpu:hot marker are checked.
	HotPackages []string

	// TimePackages lists the directory prefixes that run under the
	// deterministic simulation harness and therefore must never read the
	// wall clock directly (the timesource rule): time flows only through
	// the threaded Clock.
	TimePackages []string

	// MetricPrefix is the required Prometheus metric-name prefix.
	MetricPrefix string

	// MetricUnits lists the unit suffixes a metric name may end with
	// (matched as "_<unit>"; "total" covers counters).
	MetricUnits []string
}

// DefaultConfig is the repository's committed lint policy: raw addressing
// only in the memory system and substrate simulators (the packages that ARE
// the address space); context threading in the engine/framework/microbench/
// profile/comm stack; no manufactured root contexts anywhere under
// internal/; lock-scope discipline in the concurrent service packages; the
// igpucomm_ Prometheus namespace.
func DefaultConfig() Config {
	return Config{
		RawAddrAllowed: []string{
			"internal/cache",
			"internal/coherence",
			"internal/comm",
			"internal/cpu",
			"internal/gpu",
			"internal/hazard",
			"internal/isa",
			"internal/memdev",
			"internal/mmu",
			"internal/soc",
			"internal/tiling",
		},
		CtxPackages: []string{
			"internal/engine",
			"internal/framework",
			"internal/microbench",
			"internal/profile",
			"internal/comm",
		},
		CtxBackgroundBanned: []string{"internal"},
		LockPackages: []string{
			"internal/engine",
			"internal/faults",
			"internal/fleet",
			"internal/telemetry",
			"internal/advisord",
		},
		HotPackages: []string{
			"internal/cache",
			"internal/gpu",
			"internal/coherence",
		},
		TimePackages: []string{
			"internal/engine",
			"internal/advisord",
			"internal/fleet",
		},
		MetricPrefix: "igpucomm_",
		MetricUnits: []string{
			"total", "seconds", "bytes", "ratio", "info", "state",
			"utilization", "in_flight", "in_use", "workers", "entries",
			"size",
		},
	}
}

// rawAddrAnalyzer adapts the syntactic rawaddr rule to the analyzer
// framework: raw .Addr arithmetic is allowed only in the memory system.
func rawAddrAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "rawaddr",
		Doc:  "no raw buffer-address arithmetic outside the memory system; index through Layout accessors",
		Run: func(pass *Pass) []Finding {
			if inDirs(pass.Pkg.Dir, pass.Config.RawAddrAllowed) {
				return nil
			}
			var out []Finding
			for _, f := range pass.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if b, ok := n.(*ast.BinaryExpr); ok {
						out = append(out, checkRawAddr(pass.Fset, b)...)
					}
					return true
				})
			}
			return out
		},
	}
}

// validateWrapAnalyzer adapts the syntactic validatewrap rule: every error
// built inside an exported Validate method must carry the package prefix.
func validateWrapAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "validatewrap",
		Doc:  "errors built inside Validate methods must be prefixed with the package name",
		Run: func(pass *Pass) []Finding {
			var out []Finding
			for _, f := range pass.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if fn, ok := n.(*ast.FuncDecl); ok && fn.Name.Name == "Validate" && fn.Recv != nil {
						out = append(out, checkValidateWrap(pass.Fset, fn, f.Name.Name)...)
					}
					return true
				})
			}
			return out
		},
	}
}

// --- rule: rawaddr ---

var arithmeticOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true,
	token.QUO: true, token.REM: true,
}

// checkRawAddr flags a .Addr field selection used as an operand of
// arithmetic. Method calls like lay.Addr("frame") are CallExprs, not bare
// selectors, so the Layout accessor never trips the rule.
func checkRawAddr(fset *token.FileSet, b *ast.BinaryExpr) []Finding {
	if !arithmeticOps[b.Op] {
		return nil
	}
	var out []Finding
	for _, e := range []ast.Expr{b.X, b.Y} {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Addr" {
			continue
		}
		out = append(out, Finding{
			Pos:  fset.Position(sel.Pos()),
			Rule: "rawaddr",
			Msg: "raw arithmetic on a buffer's .Addr outside the memory system; " +
				"index through Layout accessors instead",
		})
	}
	return out
}

// --- rule: unitsmix (name fallback; the analyzer is in unitsmix.go) ---

// unitClass classifies an expression by the unit its name advertises:
// "latency" for durations, "bytes" for sizes and counts of bytes, "" when
// the name says nothing either way. unitsmix falls back to it for operands
// whose types carry no unit.
func unitClass(e ast.Expr) string {
	var name string
	switch v := e.(type) {
	case *ast.Ident:
		name = v.Name
	case *ast.SelectorExpr:
		name = v.Sel.Name
	case *ast.CallExpr:
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
			name = sel.Sel.Name
		}
	case *ast.ParenExpr:
		return unitClass(v.X)
	default:
		return ""
	}
	lower := strings.ToLower(name)
	latency := strings.Contains(lower, "latency") ||
		strings.Contains(lower, "elapsed") ||
		strings.HasSuffix(lower, "time")
	bytes := strings.Contains(lower, "bytes") || strings.HasSuffix(lower, "size")
	if latency == bytes { // neither, or a name claiming both
		return ""
	}
	if latency {
		return "latency"
	}
	return "bytes"
}

// --- rule: validatewrap ---

// checkValidateWrap requires every error literal built inside an exported
// Validate method to open with the package's name ("mmu: ...", "cache %s:
// ..."), so failures name their origin wherever they surface.
func checkValidateWrap(fset *token.FileSet, fn *ast.FuncDecl, pkg string) []Finding {
	var out []Finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		isErrf := recv.Name == "fmt" && sel.Sel.Name == "Errorf"
		isNew := recv.Name == "errors" && sel.Sel.Name == "New"
		if (!isErrf && !isNew) || len(call.Args) == 0 {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		text, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		if !strings.HasPrefix(text, pkg+":") && !strings.HasPrefix(text, pkg+" ") {
			out = append(out, Finding{
				Pos:  fset.Position(lit.Pos()),
				Rule: "validatewrap",
				Msg: fmt.Sprintf("Validate error %q must be prefixed with the package name %q",
					text, pkg),
			})
		}
		return true
	})
	return out
}
