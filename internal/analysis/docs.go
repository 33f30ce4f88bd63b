package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"unicode"
)

// DocPackages is the default set of directories LintExportedDocs enforces:
// the packages whose exported surface other layers program against, so an
// undocumented identifier there is an API without a contract.
func DocPackages() []string {
	return []string{
		"internal/advisord",
		"internal/advisord/client",
		"internal/engine",
		"internal/faults",
		"internal/fleet",
		"internal/perfbench",
		"internal/perfmodel",
		"internal/telemetry",
	}
}

// LintExportedDocs checks that every exported top-level identifier (func,
// method, type, const, var) in the given directories (relative to root,
// non-recursive) carries a doc comment. A doc comment on a grouped const/var
// declaration covers every name in the group. Findings use the "exporteddoc"
// rule.
func LintExportedDocs(root string, dirs []string) ([]Finding, error) {
	fset := token.NewFileSet()
	var out []Finding
	for _, dir := range dirs {
		full := filepath.Join(root, filepath.FromSlash(dir))
		entries, err := os.ReadDir(full)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(full, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			out = append(out, lintFileDocs(fset, f)...)
		}
	}
	sortFindings(out)
	return out, nil
}

// lintFileDocs applies the exporteddoc rule to one parsed file.
func lintFileDocs(fset *token.FileSet, f *ast.File) []Finding {
	var out []Finding
	flag := func(pos token.Pos, what, name string) {
		out = append(out, Finding{
			Pos:  fset.Position(pos),
			Rule: "exporteddoc",
			Msg:  fmt.Sprintf("exported %s %s has no doc comment", what, name),
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			what := "function"
			if d.Recv != nil {
				what = "method"
			}
			flag(d.Pos(), what, d.Name.Name)
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() && d.Doc == nil && ts.Doc == nil {
						flag(ts.Pos(), "type", ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				what := "const"
				if d.Tok == token.VAR {
					what = "var"
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					// A doc comment on the group covers its members.
					if d.Doc != nil || vs.Doc != nil || vs.Comment != nil {
						continue
					}
					for _, n := range vs.Names {
						if n.IsExported() {
							flag(n.Pos(), what, n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// mdLinkRE matches inline markdown links and images: [text](target) /
// ![alt](target). Targets with spaces or nested parentheses are out of scope
// — this repo's docs do not use them.
var mdLinkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^()\s]+)\)`)

// CheckMarkdownLinks verifies that every relative link target in the given
// markdown files (paths relative to root) resolves to an existing file or
// directory, and that every #fragment — in-page or on a relative .md target —
// names an actual heading's GitHub-style anchor in the linked file. Absolute
// URLs (with a scheme) and mailto links are skipped. Findings use the
// "mdlink" rule.
func CheckMarkdownLinks(root string, files []string) ([]Finding, error) {
	anchors := map[string]map[string]bool{} // file path -> heading slugs
	anchorsOf := func(path string) (map[string]bool, error) {
		if a, ok := anchors[path]; ok {
			return a, nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		a := headingAnchors(string(data))
		anchors[path] = a
		return a, nil
	}

	var out []Finding
	for _, rel := range files {
		full := filepath.Join(root, filepath.FromSlash(rel))
		data, err := os.ReadFile(full)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		lines := strings.Split(string(data), "\n")
		inFence := false
		for i, line := range lines {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range mdLinkRE.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if skipLinkTarget(target) {
					continue
				}
				flag := func(format string, args ...any) {
					out = append(out, Finding{
						Pos:  token.Position{Filename: full, Line: i + 1, Column: strings.Index(line, m[0]) + 1},
						Rule: "mdlink",
						Msg:  fmt.Sprintf(format, args...),
					})
				}
				path, fragment := target, ""
				if j := strings.Index(path, "#"); j >= 0 {
					path, fragment = path[:j], path[j+1:]
				}
				if j := strings.Index(path, "?"); j >= 0 {
					path = path[:j]
				}
				resolved := full // in-page anchor
				if path != "" {
					resolved = filepath.Join(filepath.Dir(full), filepath.FromSlash(path))
					if _, err := os.Stat(resolved); err != nil {
						flag("relative link %q does not resolve", target)
						continue
					}
				}
				if fragment == "" {
					continue
				}
				if !strings.HasSuffix(resolved, ".md") {
					flag("link %q carries a #fragment, but %s is not a markdown file", target, path)
					continue
				}
				heads, err := anchorsOf(resolved)
				if err != nil {
					return nil, fmt.Errorf("analysis: %w", err)
				}
				if !heads[strings.ToLower(fragment)] {
					flag("anchor %q does not match any heading in %s", "#"+fragment, filepath.Base(resolved))
				}
			}
		}
	}
	sortFindings(out)
	return out, nil
}

// headingAnchors extracts the GitHub-style anchor slug of every ATX heading
// in a markdown document. Duplicate headings get -1, -2, ... suffixes, and
// headings inside fenced code blocks are ignored — both as GitHub renders
// them.
func headingAnchors(doc string) map[string]bool {
	out := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(trimmed, "#") {
			continue
		}
		text := strings.TrimLeft(trimmed, "#")
		if text == trimmed || (text != "" && text[0] != ' ' && text[0] != '\t') {
			continue // not an ATX heading ("#foo" or more than just hashes)
		}
		slug := headingSlug(strings.TrimSpace(text))
		if n := seen[slug]; n > 0 {
			out[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			out[slug] = true
		}
		seen[slug]++
	}
	return out
}

// headingSlug converts heading text to its GitHub anchor: lowercase, spaces
// to hyphens, everything except letters, digits, hyphens and underscores
// dropped (which also strips backticks and other markdown punctuation).
func headingSlug(text string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(text) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') ||
			(r > 127 && (unicode.IsLetter(r) || unicode.IsDigit(r))):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// skipLinkTarget reports whether a link target is out of scope for the
// relative-link check (absolute URL or mailto; in-page #anchors are checked).
func skipLinkTarget(target string) bool {
	if strings.HasPrefix(target, "#") {
		return false
	}
	u, err := url.Parse(target)
	return err == nil && u.Scheme != ""
}

// MarkdownFiles lists the documentation set the docs-links CI step checks:
// the top-level README/DESIGN/EXPERIMENTS/ROADMAP plus everything under
// docs/. Paths come back relative to root, sorted.
func MarkdownFiles(root string) ([]string, error) {
	var files []string
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		if _, err := os.Stat(filepath.Join(root, name)); err == nil {
			files = append(files, name)
		}
	}
	docs := filepath.Join(root, "docs")
	err := filepath.WalkDir(docs, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".md") {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			files = append(files, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	sort.Strings(files)
	return files, nil
}

// sortFindings orders findings by position, the same order Lint uses.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
