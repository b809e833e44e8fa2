// Package analysis is ndss-lint: five custom static analyzers that
// mechanically enforce the codebase's cross-cutting invariants no type,
// go vet check or test already covers — crash safety (fsiodiscipline),
// cancellation (ctxflow), metrics hygiene (metrichygiene), error
// discipline in the CLIs (errdiscard), and mutex-guarded fields in the
// serving tier (guardedby). Each invariant is documented in
// docs/INVARIANTS.md; diagnostics link there by anchor.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built only on the standard
// library: packages are loaded with `go list -export` and type-checked
// with go/types against compiler export data, so the module stays
// dependency-free. Analyzers are package-local (no facts); every
// invariant here is checkable within one package.
//
// Diagnostics can be suppressed with a justified directive on or
// immediately above the offending statement or declaration:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; a bare directive is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-line description shown by ndss-lint -list.
	Doc string
	// Anchor is the docs/INVARIANTS.md anchor documenting the invariant.
	Anchor string
	// Run inspects one package and reports violations through the pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a violation at pos. The INVARIANTS.md anchor is
// appended so every diagnostic points at the documented invariant.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if p.Analyzer.Anchor != "" {
		msg += " [docs/INVARIANTS.md#" + p.Analyzer.Anchor + "]"
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  msg,
	})
}

// PkgPath returns the package's import path.
func (p *Pass) PkgPath() string { return p.Pkg.Path() }

// underAny reports whether pkgPath is one of the given import paths or
// nested below one of them.
func underAny(pkgPath string, prefixes ...string) bool {
	for _, pre := range prefixes {
		if pkgPath == pre || strings.HasPrefix(pkgPath, pre+"/") {
			return true
		}
	}
	return false
}

// staticCallee resolves the called function of a call expression when
// it is a static function or method call, nil otherwise.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgCall reports whether call statically invokes pkgPath.name (a
// package-level function).
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := staticCallee(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// methodOnNamed reports whether fn is a method whose receiver's named
// type is pkgPath.typeName (through pointers).
func methodOnNamed(fn *types.Func, pkgPath, typeName string) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// RunAnalyzers runs every analyzer over every package and returns the
// surviving diagnostics, sorted by position, after applying
// lint:ignore directives. Malformed directives (no reason) are
// reported as diagnostics of the pseudo-analyzer "directive".
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs, dirDiags := collectDirectives(pkg)
		diags = append(diags, dirDiags...)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &pkgDiags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		diags = append(diags, filterIgnored(pkgDiags, dirs)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// directive is one parsed lint:ignore comment and the source region it
// covers: its own line plus the whole declaration or statement that
// follows it.
type directive struct {
	names    map[string]bool
	reason   string
	file     string
	line     int // the directive's own line
	from, to int // line range of the covered node (inclusive), 0 if none
}

// A Suppression is one lint:ignore directive, surfaced for the
// `ndss-lint -suppressions` debt report.
type Suppression struct {
	File      string
	Line      int
	Analyzers []string // sorted
	Reason    string   // empty for a malformed (reason-less) directive
}

// Suppressions returns every lint:ignore directive in the given
// packages, sorted by position. Malformed directives (missing reason)
// are included with an empty Reason so the report shows the full debt.
func Suppressions(pkgs []*Package) []Suppression {
	var out []Suppression
	for _, pkg := range pkgs {
		dirs, malformed := collectDirectives(pkg)
		for _, d := range dirs {
			names := make([]string, 0, len(d.names))
			for n := range d.names {
				names = append(names, n)
			}
			sort.Strings(names)
			out = append(out, Suppression{File: d.file, Line: d.line, Analyzers: names, Reason: d.reason})
		}
		for _, d := range malformed {
			out = append(out, Suppression{File: d.Pos.Filename, Line: d.Pos.Line, Analyzers: []string{"?"}})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

var directiveRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s*(.*)$`)

// collectDirectives parses every lint:ignore comment in the package
// and resolves the node each one covers.
func collectDirectives(pkg *Package) ([]directive, []Diagnostic) {
	var dirs []directive
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					diags = append(diags, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						Message:  "lint:ignore directive requires a reason: //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				d := directive{
					names:  map[string]bool{},
					reason: strings.TrimSpace(m[2]),
					file:   pos.Filename,
					line:   pos.Line,
				}
				for _, n := range strings.Split(m[1], ",") {
					d.names[strings.TrimSpace(n)] = true
				}
				if node := nodeAfter(f, c.End()); node != nil {
					d.from = pkg.Fset.Position(node.Pos()).Line
					d.to = pkg.Fset.Position(node.End()).Line
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs, diags
}

// nodeAfter returns the smallest declaration, statement or spec that
// begins at or after pos — the node a preceding directive covers.
func nodeAfter(f *ast.File, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case ast.Decl, ast.Stmt, ast.Spec:
			if n.Pos() >= pos && (best == nil || n.Pos() < best.Pos()) {
				best = n
			}
		}
		return true
	})
	return best
}

func filterIgnored(diags []Diagnostic, dirs []directive) []Diagnostic {
	if len(dirs) == 0 {
		return diags
	}
	out := diags[:0]
	for _, d := range diags {
		if !ignored(d, dirs) {
			out = append(out, d)
		}
	}
	return out
}

func ignored(d Diagnostic, dirs []directive) bool {
	for _, dir := range dirs {
		if dir.file != d.Pos.Filename || !dir.names[d.Analyzer] {
			continue
		}
		if d.Pos.Line == dir.line || (dir.from > 0 && d.Pos.Line >= dir.from && d.Pos.Line <= dir.to) {
			return true
		}
	}
	return false
}
