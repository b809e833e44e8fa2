package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxScope lists the library packages whose query path must stay
// cancellable end to end: the PR 2 contract is that a timed-out or
// abandoned request stops issuing I/O at the next checkpoint, which
// only holds if every function on the path takes and forwards a
// context instead of minting its own.
var ctxScope = []string{"ndss/internal/search", "ndss/internal/server", "ndss/internal/core", "ndss/internal/shard"}

// ctxExportScope is the narrower scope in which exported I/O entry
// points must accept a context: the serving path. Offline builders
// (internal/core's index-construction facade) are batch CLI work where
// cancellation is process-level. The shard coordinator is serving-path
// code through and through — every ShardClient entry point fans out
// network or index I/O — so it carries the full obligation.
var ctxExportScope = []string{"ndss/internal/search", "ndss/internal/server", "ndss/internal/shard"}

// traceRootScope is where minting a fresh trace root is always a bug.
// The scatter–gather layer runs mid-request: every span it starts must
// be a child of the caller's trace (obs.TraceFromContext + Child), or
// the coordinator's tree and the shard's remote spans land in separate
// traces and /debug/trace can never assemble one connected flight.
// Only the serving edge (internal/server) may mint roots, and only
// when the inbound request carried no traceparent.
var traceRootScope = []string{"ndss/internal/shard"}

// ioFuncPackages are packages whose package-level functions count as
// performing I/O.
var ioFuncPackages = map[string]bool{"os": true, "net": true}

// ioHTTPFuncs are the net/http package-level functions that actually
// touch the network; constructors and mux registration do not.
var ioHTTPFuncs = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true,
	"ListenAndServe": true, "ListenAndServeTLS": true,
	"Serve": true, "ServeTLS": true,
	"ReadRequest": true, "ReadResponse": true,
}

// ioMethodNames are method names that perform index or corpus I/O in
// this codebase (the IndexReader and TextSource surfaces).
var ioMethodNames = map[string]bool{
	"ReadListInto": true, "ReadListForTextInto": true,
	"ReadText": true, "ReadAt": true,
}

// CtxFlow enforces the cancellation contract in library code: no
// context.Background()/context.TODO(), context parameters first and
// actually used, context-less wrappers never called from code that
// already holds a context, and exported I/O entry points must accept
// a context.
var CtxFlow = &Analyzer{
	Name:   "ctxflow",
	Doc:    "library query paths must take and forward context.Context; no context.Background/TODO",
	Anchor: "ctxflow",
	Run:    runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	if !underAny(pass.PkgPath(), ctxScope...) {
		return nil
	}
	doesIO := ioClosure(pass)
	for _, f := range pass.Files {
		checkTraceGlobals(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFlowFunc(pass, fd, doesIO)
		}
	}
	return nil
}

// checkTraceGlobals rejects package-level trace-context state: a trace
// context names one request's position in one trace, so parking it in
// a global either leaks one request's identity into every later
// request or forces all requests into a single shared trace. The only
// sanctioned carrier is the request context.
func checkTraceGlobals(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
				if ok && isNamedIn(obj.Type(), "ndss/internal/obs", "TraceContext") {
					pass.Reportf(name.Pos(),
						"package-level obs.TraceContext %s; trace context is per-request state and must flow through the request context",
						name.Name)
				}
			}
		}
	}
}

func checkCtxFlowFunc(pass *Pass, fd *ast.FuncDecl, doesIO map[*types.Func]bool) {
	ctxParam := contextParam(pass, fd)
	hasReq := hasRequestParam(pass, fd)

	// Exported entry points that (transitively, within this package)
	// perform I/O must be cancellable: a context.Context parameter, or
	// an *http.Request that carries one.
	obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fd.Name.IsExported() && obj != nil && doesIO[obj] && ctxParam == nil && !hasReq &&
		underAny(pass.PkgPath(), ctxExportScope...) {
		pass.Reportf(fd.Name.Pos(),
			"exported %s performs I/O but takes no context.Context; I/O must be cancellable",
			fd.Name.Name)
	}

	if ctxParam != nil {
		// Convention: the context is the first parameter.
		if first := firstParamObj(pass, fd); first != nil && first != ctxParam {
			pass.Reportf(ctxParam.Pos(), "context.Context must be the first parameter")
		}
		if obj != nil && doesIO[obj] && !objUsed(pass, fd, ctxParam) {
			pass.Reportf(fd.Name.Pos(),
				"%s takes a context.Context but never forwards it; its I/O is uncancellable",
				fd.Name.Name)
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPkgCall(pass.TypesInfo, call, "context", "Background") ||
			isPkgCall(pass.TypesInfo, call, "context", "TODO") {
			pass.Reportf(call.Pos(),
				"context.%s in library code severs cancellation; accept and forward a caller context",
				staticCallee(pass.TypesInfo, call).Name())
		}
		// The trace analogue of context.Background: minting a root
		// trace context mid-request detaches every downstream span
		// from the caller's trace.
		if isPkgCall(pass.TypesInfo, call, "ndss/internal/obs", "NewTraceContext") &&
			underAny(pass.PkgPath(), traceRootScope...) {
			pass.Reportf(call.Pos(),
				"obs.NewTraceContext mints a new trace root mid-request; derive a child from the caller's trace context (obs.TraceFromContext + Child)")
		}
		// Inside a function that holds a context, calling the
		// context-less wrapper of a method that has a Context variant
		// drops the deadline on the floor.
		if ctxParam != nil || hasReq {
			if fn := staticCallee(pass.TypesInfo, call); fn != nil && fn.Name() != "" {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && !takesContext(sig) {
					if hasContextVariant(fn) {
						pass.Reportf(call.Pos(),
							"call %sContext and forward the context instead of %s",
							fn.Name(), fn.Name())
					}
				}
			}
		}
		return true
	})
}

// ioClosure computes, over the package's static same-package call
// graph, which functions perform I/O directly or transitively.
func ioClosure(pass *Pass) map[*types.Func]bool {
	direct := map[*types.Func]bool{}
	callees := map[*types.Func][]*types.Func{}
	var fns []*types.Func
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fns = append(fns, obj)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := staticCallee(pass.TypesInfo, call)
				if fn == nil {
					return true
				}
				sig := fn.Type().(*types.Signature)
				switch {
				case fn.Pkg() != nil && ioFuncPackages[fn.Pkg().Path()] && sig.Recv() == nil:
					direct[obj] = true
				case fn.Pkg() != nil && fn.Pkg().Path() == "net/http" && sig.Recv() == nil && ioHTTPFuncs[fn.Name()]:
					direct[obj] = true
				case fn.Pkg() != nil && fn.Pkg().Path() == "ndss/internal/fsio":
					direct[obj] = true
				case sig.Recv() != nil && ioMethodNames[fn.Name()]:
					direct[obj] = true
				case fn.Pkg() == pass.Pkg:
					callees[obj] = append(callees[obj], fn)
				}
				return true
			})
		}
	}
	// Propagate to a fixed point (the graph is tiny).
	closure := direct
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if closure[fn] {
				continue
			}
			for _, c := range callees[fn] {
				if closure[c] {
					closure[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return closure
}

func contextParam(pass *Pass, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
				return v
			}
		}
	}
	return nil
}

func firstParamObj(pass *Pass, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return nil
	}
	field := fd.Type.Params.List[0]
	if len(field.Names) == 0 {
		return nil
	}
	v, _ := pass.TypesInfo.Defs[field.Names[0]].(*types.Var)
	return v
}

func hasRequestParam(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && isHTTPRequest(v.Type()) {
				return true
			}
		}
	}
	return false
}

func objUsed(pass *Pass, fd *ast.FuncDecl, obj *types.Var) bool {
	used := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			used = true
			return false
		}
		return !used
	})
	return used
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func isHTTPRequest(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

func takesContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// hasContextVariant reports whether fn's receiver type also has a
// method named fn.Name()+"Context".
func hasContextVariant(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	variant := fn.Name() + "Context"
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == variant {
				return true
			}
		}
	}
	return false
}
