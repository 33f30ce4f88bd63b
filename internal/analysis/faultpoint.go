package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
)

// faultPointAnalyzer enforces the fault-point contract between the
// production code and the fault plans: every point name passed to
// faults.Register / faults.Fire / faults.FireData must be a compile-time
// string constant, every registered point must appear in the committed
// catalog (faults.Catalog), and the catalog must carry no orphans. A
// dynamic name would make a fault plan silently miss its target; an
// orphan catalog entry documents a failure mode that no longer exists. Both
// are invisible to the compiler because point names are just strings.
func faultPointAnalyzer() *Analyzer {
	return &Analyzer{
		Name:      "faultpoint",
		Doc:       "fault-point names are string constants declared in faults.Catalog; no dynamic names, no orphans",
		RunModule: runFaultPoint,
	}
}

func runFaultPoint(mp *ModulePass) []Finding {
	var out []Finding

	catalog, _, ok := loadFaultCatalog(mp)
	registered := map[string]token.Position{} // name -> first Register site
	fired := map[string]token.Position{}      // name -> first Fire site

	for _, pass := range mp.Passes() {
		// Package-level vars initialized from faults.Register double as
		// point identifiers at Fire sites; resolve them first.
		registerVars := map[types.Object]string{}
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				gd, isGen := decl.(*ast.GenDecl)
				if !isGen || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, val := range vs.Values {
						call, isCall := val.(*ast.CallExpr)
						if !isCall || i >= len(vs.Names) {
							continue
						}
						if !isPkgFunc(pass, call, "internal/faults", "Register") {
							continue
						}
						if name, lit := constString(pass, call.Args[0]); lit {
							registerVars[pass.ObjectOf(vs.Names[i])] = name
						}
					}
				}
			}
		}

		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if !isCall || len(call.Args) == 0 {
					return true
				}
				switch {
				case isPkgFunc(pass, call, "internal/faults", "Register"):
					name, lit := constString(pass, call.Args[0])
					if !lit {
						out = append(out, Finding{
							Pos:  pass.Position(call.Args[0].Pos()),
							Rule: "faultpoint",
							Msg:  "fault-point name is not a compile-time string constant",
						})
						return true
					}
					if _, dup := registered[name]; dup {
						out = append(out, Finding{
							Pos:  pass.Position(call.Args[0].Pos()),
							Rule: "faultpoint",
							Msg:  fmt.Sprintf("fault point %q registered more than once", name),
						})
						return true
					}
					registered[name] = pass.Position(call.Args[0].Pos())
				case isPkgFunc(pass, call, "internal/faults", "Fire"),
					isPkgFunc(pass, call, "internal/faults", "FireData"):
					name, lit := constString(pass, call.Args[0])
					if !lit {
						if id, isIdent := ast.Unparen(call.Args[0]).(*ast.Ident); isIdent {
							if n, known := registerVars[pass.ObjectOf(id)]; known {
								name, lit = n, true
							}
						}
					}
					if !lit {
						out = append(out, Finding{
							Pos:  pass.Position(call.Args[0].Pos()),
							Rule: "faultpoint",
							Msg:  "fault-point name is dynamic; use a string constant or a faults.Register-initialized var",
						})
						return true
					}
					if _, seen := fired[name]; !seen {
						fired[name] = pass.Position(call.Args[0].Pos())
					}
				}
				return true
			})
		}
	}

	if !ok {
		out = append(out, Finding{
			Pos:  token.Position{Filename: "internal/faults"},
			Rule: "faultpoint",
			Msg:  "fault-point catalog (var Catalog = []string{...}) not found in the faults package",
		})
		return out
	}

	for name, pos := range registered {
		if _, inCat := catalog[name]; !inCat {
			out = append(out, Finding{Pos: pos, Rule: "faultpoint",
				Msg: fmt.Sprintf("fault point %q is not declared in faults.Catalog", name)})
		}
	}
	for name, pos := range fired {
		if _, isReg := registered[name]; !isReg {
			out = append(out, Finding{Pos: pos, Rule: "faultpoint",
				Msg: fmt.Sprintf("fault point %q is fired but never registered", name)})
		}
	}
	for name, pos := range catalog {
		if _, isReg := registered[name]; !isReg {
			out = append(out, Finding{Pos: pos, Rule: "faultpoint",
				Msg: fmt.Sprintf("catalog entry %q is an orphan: no faults.Register site declares it", name)})
		}
	}
	return out
}

// loadFaultCatalog reads the committed catalog — the package-level
// `var Catalog = []string{...}` in the faults package — returning each
// entry's position for orphan reporting.
func loadFaultCatalog(mp *ModulePass) (map[string]token.Position, token.Position, bool) {
	for _, pass := range mp.Passes() {
		if !hasPathSuffix(pass.Pkg.Path, "internal/faults") {
			continue
		}
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				gd, isGen := decl.(*ast.GenDecl)
				if !isGen || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if name.Name != "Catalog" || i >= len(vs.Values) {
							continue
						}
						lit, isLit := vs.Values[i].(*ast.CompositeLit)
						if !isLit {
							continue
						}
						entries := map[string]token.Position{}
						for _, el := range lit.Elts {
							if s, isStr := stringLit(el); isStr {
								entries[s] = pass.Position(el.Pos())
							}
						}
						return entries, pass.Position(lit.Pos()), true
					}
				}
			}
		}
	}
	return nil, token.Position{}, false
}

// constString evaluates an expression to a compile-time string constant.
func constString(pass *Pass, e ast.Expr) (string, bool) {
	if pass.Pkg.Info == nil {
		return stringLit(e)
	}
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// stringLit unquotes a basic string literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
