package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// unitsMixAnalyzer is the type-aware unitsmix rule. Beyond operand names
// ("copyTime + dramBytes") it tracks the named quantity types of
// internal/units (Latency, Cycles, Hertz, BytesPerSecond) and
// time.Duration through conversions, so laundering a latency through
// float64() does not hide the mix. Adding or subtracting
// two different unit classes is a units error no matter what the Go types
// say; conversions between domains must go through an explicit rate
// (division), which the rule leaves alone.
func unitsMixAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "unitsmix",
		Doc:  "no + or - between different physical-unit classes (latency, cycles, bytes, bandwidth, frequency)",
		Run: func(pass *Pass) []Finding {
			var out []Finding
			for _, f := range pass.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					b, ok := n.(*ast.BinaryExpr)
					if !ok || (b.Op != token.ADD && b.Op != token.SUB) {
						return true
					}
					cx := unitClassOf(pass, b.X)
					cy := unitClassOf(pass, b.Y)
					if cx == "" || cy == "" || cx == cy {
						return true
					}
					out = append(out, Finding{
						Pos:  pass.Position(b.Pos()),
						Rule: "unitsmix",
						Msg: fmt.Sprintf("adding %s to %s; convert through an explicit rate instead",
							cx, cy),
					})
					return true
				})
			}
			return out
		},
	}
}

// unitClassOf classifies an expression's physical unit: first by its static
// type (the units.* named quantities and time.Duration), then by unwrapping
// numeric conversions that would otherwise launder the type, and finally by
// the name heuristic (unitClass).
func unitClassOf(pass *Pass, e ast.Expr) string {
	e = ast.Unparen(e)

	if t := pass.TypeOf(e); t != nil {
		// String concatenation and untyped constants carry no unit.
		if basic, ok := t.Underlying().(*types.Basic); ok {
			if basic.Info()&types.IsString != 0 || basic.Info()&types.IsUntyped != 0 {
				return ""
			}
		}
		if c := unitClassOfType(t); c != "" {
			return c
		}
	}

	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		// A conversion to a plain numeric type (float64(lat), int64(n))
		// hides the operand's unit — classify the operand instead.
		if pass.Pkg.Info != nil {
			if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
				if unitClassOfType(tv.Type) == "" {
					return unitClassOf(pass, call.Args[0])
				}
				return unitClassOfType(tv.Type)
			}
		}
		// Known unit-producing accessors on the quantity types.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if rc := unitClassOfType(pass.TypeOf(sel.X)); rc != "" {
				switch sel.Sel.Name {
				case "Seconds", "Duration", "Lat", "TimeFor":
					return "latency"
				case "GB":
					return "bandwidth"
				}
			}
		}
	}

	return unitClass(e)
}

// unitClassOfType maps the named quantity types to their unit class:
// units.Latency and time.Duration are wall time, units.Cycles is a clock
// domain's own time, units.BytesPerSecond a rate, units.Hertz a frequency.
func unitClassOfType(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch {
	case obj.Pkg().Path() == "time" && obj.Name() == "Duration":
		return "latency"
	case hasPathSuffix(obj.Pkg().Path(), "internal/units"):
		switch obj.Name() {
		case "Latency":
			return "latency"
		case "Cycles":
			return "cycles"
		case "Hertz":
			return "frequency"
		case "BytesPerSecond":
			return "bandwidth"
		}
	}
	return ""
}

// hasPathSuffix reports whether an import path is exactly suffix or ends
// with "/"+suffix.
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || (len(path) > len(suffix) &&
		path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix)
}
