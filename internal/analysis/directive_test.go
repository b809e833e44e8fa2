package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseTestPkg type-checks a single import-free source string as a
// package at the given import path.
func parseTestPkg(t *testing.T, importPath, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg := &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      []*ast.File{f},
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{Error: func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) }}
	pkg.Types, _ = conf.Check(importPath, fset, pkg.Files, pkg.Info)
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture does not type-check: %v", pkg.TypeErrors)
	}
	return pkg
}

// A lint:ignore directive without a reason is itself a diagnostic and
// suppresses nothing, even with no analyzers selected.
func TestBareDirectiveIsDiagnostic(t *testing.T) {
	pkg := parseTestPkg(t, "ndss/internal/index", `package index

func f() int {
	//lint:ignore fsiodiscipline
	return 1
}
`)
	diags, err := RunAnalyzers([]*Package{pkg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "directive" || !strings.Contains(diags[0].Message, "requires a reason") {
		t.Fatalf("unexpected diagnostic: %+v", diags[0])
	}
	if diags[0].Pos.Line != 4 {
		t.Fatalf("diagnostic at line %d, want 4", diags[0].Pos.Line)
	}
}

// Diagnostics come out sorted by file position so runs are
// deterministic and diffable.
func TestDiagnosticsSorted(t *testing.T) {
	pkg := parseTestPkg(t, "ndss/internal/index", `package index

func g() {
	//lint:ignore guardedby
	//lint:ignore ctxflow
	_ = 0
}
`)
	diags, err := RunAnalyzers([]*Package{pkg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 || diags[0].Pos.Line != 4 || diags[1].Pos.Line != 5 {
		t.Fatalf("got %v, want two line-ordered directive diagnostics", diags)
	}
}
