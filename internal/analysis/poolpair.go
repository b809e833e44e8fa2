package analysis

import (
	"go/ast"
	"go/types"
)

// poolScope lists the packages whose sync.Pool discipline is checked:
// the query path's steady-state no-allocation property (PR 1) rests on
// every pooled object being returned on every exit path, including
// panics — which in Go means the Put must be deferred.
var poolScope = []string{"ndss/internal/search", "ndss/internal/index", "ndss/internal/server"}

// PoolPair enforces the Get/Put pairing discipline on sync.Pool:
// a function that takes an object out of a pool must install a
// deferred return of it (directly, or via a same-package release
// helper), unless the function is itself an acquire helper that hands
// the object to its caller — in which case the caller is checked.
var PoolPair = &Analyzer{
	Name:   "poolpair",
	Doc:    "every sync.Pool Get needs a dominating deferred Put on all return paths",
	Anchor: "poolpair",
	Run:    runPoolPair,
}

// poolRef identifies a pool by the variable or field it lives in.
type poolRef = types.Object

type poolFuncInfo struct {
	decl *ast.FuncDecl
	// gets maps each pool this function Gets from to the position of
	// the first Get.
	gets map[poolRef]*ast.CallExpr
	// returnsPooled holds pools whose Get result escapes via return —
	// the function is an acquire helper for them.
	returnsPooled map[poolRef]bool
	// deferredPuts holds pools returned via a defer (own Put or a
	// release helper call).
	deferredPuts map[poolRef]bool
	// inlinePuts maps pools to non-deferred Put call sites.
	inlinePuts map[poolRef]*ast.CallExpr
	// releases holds pools this function Puts to without Getting from —
	// it is a release helper for them.
	releases map[poolRef]bool
	// acquireCalls maps same-package acquire helpers this function
	// calls (resolved in a second pass) to the call site.
	calls []poolCall
}

type poolCall struct {
	fn       *types.Func
	site     *ast.CallExpr
	deferred bool
}

func runPoolPair(pass *Pass) error {
	if !underAny(pass.PkgPath(), poolScope...) {
		return nil
	}
	infos := map[*types.Func]*poolFuncInfo{}
	var order []*types.Func
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
			infos[obj] = collectPoolInfo(pass, fd)
			order = append(order, obj)
		}
	}

	// Classify helpers.
	acquires := map[*types.Func]poolRef{} // acquire helper -> pool
	releases := map[*types.Func]poolRef{} // release helper -> pool
	for fn, info := range infos {
		for pool := range info.returnsPooled {
			acquires[fn] = pool
		}
		for pool := range info.releases {
			releases[fn] = pool
		}
	}

	for _, fn := range order {
		info := infos[fn]
		// Obligations: direct Gets (unless handed to the caller) plus
		// non-deferred calls to acquire helpers.
		type obligation struct {
			pool poolRef
			site *ast.CallExpr
			via  string
		}
		var need []obligation
		for pool, site := range info.gets {
			if info.returnsPooled[pool] {
				continue // acquire helper: the caller owns the Put
			}
			need = append(need, obligation{pool, site, "sync.Pool Get"})
		}
		deferredRelease := map[poolRef]bool{}
		for pool := range info.deferredPuts {
			deferredRelease[pool] = true
		}
		for _, c := range info.calls {
			pool, isAcquire := acquires[c.fn]
			if isAcquire && !c.deferred {
				need = append(need, obligation{pool, c.site, "object acquired from " + c.fn.Name()})
			}
			if rp, isRelease := releases[c.fn]; isRelease && c.deferred {
				deferredRelease[rp] = true
			}
		}
		for _, ob := range need {
			if deferredRelease[ob.pool] {
				continue
			}
			if site, ok := info.inlinePuts[ob.pool]; ok {
				pass.Reportf(site.Pos(),
					"sync.Pool Put must be deferred so early returns and panics still return the object")
				continue
			}
			pass.Reportf(ob.site.Pos(),
				"%s without a deferred Put or release on all return paths; the object leaks on error and panic paths", ob.via)
		}
	}
	return nil
}

func collectPoolInfo(pass *Pass, fd *ast.FuncDecl) *poolFuncInfo {
	info := &poolFuncInfo{
		gets:          map[poolRef]*ast.CallExpr{},
		returnsPooled: map[poolRef]bool{},
		deferredPuts:  map[poolRef]bool{},
		inlinePuts:    map[poolRef]*ast.CallExpr{},
		releases:      map[poolRef]bool{},
		decl:          fd,
	}
	// pooledVars tracks local variables holding a Get result (directly
	// or through a type assertion / reassignment of the same variable).
	pooledVars := map[types.Object]poolRef{}

	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.FuncLit:
				// A deferred closure's body runs on all paths too.
				walk(n.Body, inDefer)
				return false
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if pool, ok := poolOfGet(pass, rhs); ok && i < len(n.Lhs) {
						if info.gets[pool] == nil {
							info.gets[pool] = getCall(rhs)
						}
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							if obj := pass.TypesInfo.Defs[id]; obj != nil {
								pooledVars[obj] = pool
							} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
								pooledVars[obj] = pool
							}
						}
					}
				}
			case *ast.CallExpr:
				if pool, ok := poolMethodCall(pass, n, "Get"); ok {
					if info.gets[pool] == nil {
						info.gets[pool] = n
					}
				}
				if pool, ok := poolMethodCall(pass, n, "Put"); ok {
					if inDefer {
						info.deferredPuts[pool] = true
					} else {
						info.inlinePuts[pool] = n
					}
				}
				if fn := staticCallee(pass.TypesInfo, n); fn != nil && fn.Pkg() == pass.Pkg {
					info.calls = append(info.calls, poolCall{fn: fn, site: n, deferred: inDefer})
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if id, ok := ast.Unparen(res).(*ast.Ident); ok {
						if pool, ok := pooledVars[pass.TypesInfo.Uses[id]]; ok {
							info.returnsPooled[pool] = true
						}
					}
					if pool, ok := poolOfGet(pass, res); ok {
						if info.gets[pool] == nil {
							info.gets[pool] = getCall(res)
						}
						info.returnsPooled[pool] = true
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, false)

	for pool := range info.deferredPuts {
		if _, ok := info.gets[pool]; !ok {
			info.releases[pool] = true
		}
	}
	for pool := range info.inlinePuts {
		if _, ok := info.gets[pool]; !ok {
			info.releases[pool] = true
		}
	}
	return info
}

// poolOfGet reports whether expr is pool.Get(...) or a type assertion
// over one, returning the pool's identity.
func poolOfGet(pass *Pass, expr ast.Expr) (poolRef, bool) {
	expr = ast.Unparen(expr)
	if ta, ok := expr.(*ast.TypeAssertExpr); ok {
		expr = ta.X
	}
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	return poolMethodCall(pass, call, "Get")
}

func getCall(expr ast.Expr) *ast.CallExpr {
	expr = ast.Unparen(expr)
	if ta, ok := expr.(*ast.TypeAssertExpr); ok {
		expr = ta.X
	}
	call, _ := ast.Unparen(expr).(*ast.CallExpr)
	return call
}

// poolMethodCall reports whether call is (sync.Pool).name on a
// resolvable pool variable or field, returning the pool's identity.
func poolMethodCall(pass *Pass, call *ast.CallExpr, name string) (poolRef, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil, false
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !methodOnNamed(fn, "sync", "Pool") {
		return nil, false
	}
	// The pool is the innermost selected object: a package-level var
	// (bufPool.Get) or a struct field (s.ctxPool.Get).
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[x]; obj != nil {
			return obj, true
		}
	case *ast.SelectorExpr:
		if obj := pass.TypesInfo.Uses[x.Sel]; obj != nil {
			return obj, true
		}
	case *ast.UnaryExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				return obj, true
			}
		}
	}
	return nil, false
}
