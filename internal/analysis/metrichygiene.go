package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// metricScope is where the Prometheus exposition lives.
var metricScope = []string{"ndss/internal/server"}

// headerScope is where the cross-process propagation headers are read
// and written: the serving edge (which echoes X-Request-ID and joins
// an inbound traceparent) and the scatter–gather layer (which forwards
// both on every shard leg). A literal spelling in either place can
// drift from the obs package constants — a one-character typo silently
// breaks propagation with no compile error — so the names must come
// from the constants.
var headerScope = []string{"ndss/internal/server", "ndss/internal/shard"}

// headerMethods are the net/http.Header methods whose first argument
// is a header name.
var headerMethods = map[string]bool{
	"Set": true, "Get": true, "Add": true, "Del": true, "Values": true,
}

// metricNameRe is the documented catalog shape: ndss_* for service
// metrics, go_* for runtime gauges, snake_case throughout.
var metricNameRe = regexp.MustCompile(`^(ndss|go)(_[a-z][a-z0-9]*)+$`)

// labelKeyRe is the snake_case label key shape.
var labelKeyRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// labelPairRe matches one k="v" pair inside a preformatted label
// string (v may contain format verbs or escaped quotes).
var labelPairRe = regexp.MustCompile(`([A-Za-z0-9_.-]+)=(?:%q|"(?:[^"\\]|\\.)*")`)

// MetricHygiene checks the hand-written Prometheus exposition: metric
// name literals in registry rows must match the documented catalog
// regex, label keys must be snake_case, label values
// must never derive from request input, and the per-request latency
// observation must keep the PR 4 exactly-once shape (observe only in
// admission-guarded functions, deferred once, inline only immediately
// before a return).
var MetricHygiene = &Analyzer{
	Name:   "metrichygiene",
	Doc:    "Prometheus names/labels must match the catalog; latency observed exactly once per admitted request",
	Anchor: "metric-hygiene",
	Run:    runMetricHygiene,
}

func runMetricHygiene(pass *Pass) error {
	inMetric := underAny(pass.PkgPath(), metricScope...)
	inHeader := underAny(pass.PkgPath(), headerScope...)
	if !inMetric && !inHeader {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if inMetric {
				checkRegistry(pass, fd)
				checkObserveDiscipline(pass, fd)
			}
			if inHeader {
				checkHeaderLiterals(pass, fd)
			}
		}
	}
	return nil
}

// checkHeaderLiterals rejects the propagation header names spelled as
// string literals in calls on net/http.Header. References to the obs
// constants (or a local constant) are fine — the point is that there
// is exactly one definition each of X-Request-ID and Traceparent, so
// the coordinator's Set and the shard's Get can never disagree.
func checkHeaderLiterals(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := staticCallee(pass.TypesInfo, call)
		if fn == nil || !headerMethods[fn.Name()] || !methodOnNamed(fn, "net/http", "Header") {
			return true
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		switch strings.ToLower(name) {
		case "x-request-id", "traceparent":
			pass.Reportf(lit.Pos(),
				"propagation header %q spelled as a string literal; use the obs package constant so sender and receiver cannot drift",
				name)
		}
		return true
	})
}

// checkRegistry checks the /metrics registry: the name and labels of
// every metricRow literal, the labels handed to a family row's series
// method, and the keys and values of every labelPairs call.
func checkRegistry(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !isNamedIn(pass.TypesInfo.TypeOf(n), pass.PkgPath(), "metricRow") {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				switch kv.Key.(*ast.Ident).Name { // a struct literal's keys are field names
				case "name":
					if name, ok := constString(pass, kv.Value); ok && !metricNameRe.MatchString(name) {
						pass.Reportf(kv.Value.Pos(), "metric name %q does not match the catalog shape %s", name, metricNameRe)
					}
				case "labels":
					checkLabelArg(pass, kv.Value)
				}
			}
		case *ast.CallExpr:
			if isRegistryCall(pass, n, "series") && len(n.Args) > 0 {
				checkLabelArg(pass, n.Args[0])
			}
			if !isRegistryCall(pass, n, "labelPairs") {
				return true
			}
			for i, arg := range n.Args {
				if key, ok := constString(pass, arg); ok && i%2 == 0 && !labelKeyRe.MatchString(key) {
					pass.Reportf(arg.Pos(), "label key %q is not snake_case", key)
				}
				if id := requestDerived(pass, arg); id != nil {
					pass.Reportf(arg.Pos(),
						"label value derived from request input (%s): unbounded label cardinality; use a fixed enum", id.Name)
				}
			}
		}
		return true
	})
}

// isRegistryCall reports whether call is to the named function or
// method of the package under analysis.
func isRegistryCall(pass *Pass, call *ast.CallExpr, name string) bool {
	fn := staticCallee(pass.TypesInfo, call)
	return fn != nil && fn.Pkg() == pass.Pkg && fn.Name() == name
}

// checkLabelArg validates one preformatted label-string argument:
// snake_case keys in any constant portion (including a Sprintf format
// literal), and no value derived from request input. A labelPairs call
// is checked where it is made.
func checkLabelArg(pass *Pass, arg ast.Expr) {
	if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok && isRegistryCall(pass, call, "labelPairs") {
		return
	}
	lit := ""
	if s, ok := constString(pass, arg); ok {
		lit = s
	} else if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok &&
		isPkgCall(pass.TypesInfo, call, "fmt", "Sprintf") && len(call.Args) > 0 {
		if s, ok := constString(pass, call.Args[0]); ok {
			lit = s
		}
	}
	if lit != "" {
		for _, m := range labelPairRe.FindAllStringSubmatch(lit, -1) {
			if !labelKeyRe.MatchString(m[1]) {
				pass.Reportf(arg.Pos(), "label key %q is not snake_case", m[1])
			}
		}
	}
	if id := requestDerived(pass, arg); id != nil {
		pass.Reportf(arg.Pos(),
			"label value derived from request input (%s): unbounded label cardinality; use a fixed enum", id.Name)
	}
}

// requestDerived returns an identifier inside expr whose type comes
// from the incoming HTTP request (the *http.Request itself, its
// header map, or URL values), nil if none.
func requestDerived(pass *Pass, expr ast.Expr) *ast.Ident {
	var found *ast.Ident
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found != nil {
			return found == nil
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		t := obj.Type()
		if isHTTPRequest(t) || isNamedIn(t, "net/http", "Header") || isNamedIn(t, "net/url", "Values") || isNamedIn(t, "net/url", "URL") {
			found = id
			return false
		}
		return true
	})
	return found
}

func isNamedIn(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// checkObserveDiscipline guards the exactly-once latency observation:
// every function calling (*metrics).observe must be on the admission
// path (contain a call to admit, or to the cache-hit probe paired with
// an immediate return), have at most one deferred observe, and any
// inline observe must be the statement immediately before a return.
func checkObserveDiscipline(pass *Pass, fd *ast.FuncDecl) {
	type observeSite struct {
		call     *ast.CallExpr
		deferred bool
	}
	var sites []observeSite
	hasAdmit := false

	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.CallExpr:
				fn := staticCallee(pass.TypesInfo, n)
				if fn == nil {
					return true
				}
				if fn.Name() == "observe" && methodOnNamed(fn, pass.PkgPath(), "metrics") {
					sites = append(sites, observeSite{call: n, deferred: inDefer})
				}
				if fn.Name() == "admit" && fn.Pkg() == pass.Pkg {
					hasAdmit = true
				}
			}
			return true
		})
	}
	walk(fd.Body, false)

	if len(sites) == 0 {
		return
	}
	// The observe method itself and the metrics plumbing are exempt:
	// the discipline applies to request handlers.
	if fd.Recv != nil && fd.Name.Name == "observe" {
		return
	}
	if !hasAdmit {
		pass.Reportf(sites[0].call.Pos(),
			"latency observed outside an admission-guarded function; only admitted requests may observe")
	}
	deferredCount := 0
	for _, s := range sites {
		if s.deferred {
			deferredCount++
			continue
		}
		if !followedByReturn(fd, s.call) {
			pass.Reportf(s.call.Pos(),
				"inline latency observation must be immediately followed by return, or the deferred observation double-counts the request")
		}
	}
	if deferredCount > 1 {
		pass.Reportf(sites[0].call.Pos(),
			"multiple deferred latency observations in one function break the exactly-once invariant")
	}
}

// followedByReturn reports whether the statement containing call is
// directly followed by a return statement in its enclosing block.
func followedByReturn(fd *ast.FuncDecl, call *ast.CallExpr) bool {
	ok := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		block, isBlock := n.(*ast.BlockStmt)
		if !isBlock {
			return true
		}
		for i, stmt := range block.List {
			es, isExpr := stmt.(*ast.ExprStmt)
			if !isExpr || !containsNode(es, call) {
				continue
			}
			if i+1 < len(block.List) {
				if _, isRet := block.List[i+1].(*ast.ReturnStmt); isRet {
					ok = true
				}
			}
		}
		return true
	})
	return ok
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// constString resolves expr to its compile-time constant string value.
func constString(pass *Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
