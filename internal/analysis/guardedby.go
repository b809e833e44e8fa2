package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// GuardedBy enforces the `// guarded by <mu>` field-comment convention:
// a struct field annotated with the name of a sibling sync.Mutex or
// sync.RWMutex field may only be read while that mutex is held
// (Lock or RLock) and only be written or address-taken under the full
// Lock, within the same function. Functions whose name ends in
// "Locked" are callee-side helpers documented to run with the lock
// already held and are skipped; anything else needs a justified
// //lint:ignore guardedby suppression.
//
// The analysis is deliberately function-local and syntactic about lock
// state: a Lock/RLock on `x.mu` guards subsequent accesses to fields
// of the same base expression `x` until an Unlock/RUnlock (deferred
// unlocks keep the lock held to the end of the function; a lock
// acquired or released inside a conditional branch does not leak its
// state past the branch unless the branch terminates). That is exactly
// the discipline the serving tier's hot structs follow, and the race
// detector cannot substitute for it: -race only proves the schedules
// the tests happened to explore.
var GuardedBy = &Analyzer{
	Name:   "guardedby",
	Doc:    "fields annotated `// guarded by <mu>` are only accessed with that mutex held",
	Anchor: "guardedby",
	Run:    runGuardedBy,
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// collectGuardedFields parses every `// guarded by <mu>` annotation in
// the package and maps each annotated field to its mutex's name.
// Annotations that name no sibling mutex field are reported.
func collectGuardedFields(pass *Pass) map[*types.Var]string {
	guarded := map[*types.Var]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			// Sibling mutex fields by name, for validating annotations.
			mutexes := map[string]bool{}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && isMutexType(v.Type()) {
						mutexes[name.Name] = true
					}
				}
			}
			for _, fld := range st.Fields.List {
				mu, pos, ok := guardAnnotation(fld)
				if !ok {
					continue
				}
				if !mutexes[mu] {
					pass.Reportf(pos,
						"`// guarded by %s` names no sibling sync.Mutex or sync.RWMutex field", mu)
					continue
				}
				for _, name := range fld.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guarded[v] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

// guardAnnotation extracts the mutex name of a field's `guarded by`
// comment, from either the doc comment or the trailing line comment.
func guardAnnotation(fld *ast.Field) (mu string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], fld.Pos(), true
		}
	}
	return "", token.NoPos, false
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func runGuardedBy(pass *Pass) error {
	if !strings.HasPrefix(pass.PkgPath(), "ndss") {
		return nil
	}
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				// Convention: a *Locked function documents that its caller
				// already holds the lock; the call sites are checked.
				continue
			}
			g := &guardChecker{pass: pass, guarded: guarded}
			g.block(fd.Body.List, map[lockKey]int{})
		}
	}
	return nil
}

// lockKey identifies one held mutex: the rendered base expression it
// hangs off ("" for a bare local or package-level mutex) plus the
// mutex's own name.
type lockKey struct{ base, mu string }

// Held-lock bits: RLock grants reads, Lock grants both.
const (
	rheld = 1 << iota
	wheld
)

type guardChecker struct {
	pass    *Pass
	guarded map[*types.Var]string
}

// block walks statements in order, threading the held-lock state.
func (g *guardChecker) block(stmts []ast.Stmt, held map[lockKey]int) {
	for _, s := range stmts {
		g.stmt(s, held)
	}
}

func (g *guardChecker) stmt(s ast.Stmt, held map[lockKey]int) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, op, ok := g.lockCall(s.X); ok {
			applyLockOp(held, key, op)
			return
		}
		g.expr(s.X, held, false)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			g.expr(r, held, false)
		}
		for _, l := range s.Lhs {
			g.expr(l, held, true)
		}
	case *ast.IncDecStmt:
		g.expr(s.X, held, true)
	case *ast.DeferStmt:
		if _, op, ok := g.lockCall(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return // deferred unlock: the lock stays held to the end
		}
		g.deferredCall(s.Call, held)
	case *ast.GoStmt:
		// The spawned goroutine runs on its own schedule: whatever is
		// held here proves nothing there.
		g.deferredCall(s.Call, held)
	case *ast.BlockStmt:
		g.block(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			g.stmt(s.Init, held)
		}
		g.expr(s.Cond, held, false)
		g.branch(s.Body, held)
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				g.branch(e, held)
			default: // else-if chain
				eh := cloneHeld(held)
				g.stmt(e, eh)
				g.clearUnlocked(held, e)
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			g.stmt(s.Init, held)
		}
		bh := cloneHeld(held)
		if s.Cond != nil {
			g.expr(s.Cond, bh, false)
		}
		g.block(s.Body.List, bh)
		if s.Post != nil {
			g.stmt(s.Post, bh)
		}
		g.clearUnlocked(held, s.Body)
	case *ast.RangeStmt:
		g.expr(s.X, held, false)
		bh := cloneHeld(held)
		g.block(s.Body.List, bh)
		g.clearUnlocked(held, s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			g.stmt(s.Init, held)
		}
		if s.Tag != nil {
			g.expr(s.Tag, held, false)
		}
		g.caseClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			g.stmt(s.Init, held)
		}
		g.stmt(s.Assign, held)
		g.caseClauses(s.Body, held)
	case *ast.SelectStmt:
		g.caseClauses(s.Body, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			g.expr(r, held, false)
		}
	case *ast.SendStmt:
		g.expr(s.Chan, held, false)
		g.expr(s.Value, held, false)
	case *ast.LabeledStmt:
		g.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						g.expr(v, held, false)
					}
				}
			}
		}
	}
}

// branch checks a conditional block against a copy of the held state
// and, unless the block terminates (return/branch/panic), propagates
// any unlocks it performed — a lock conditionally released must not be
// assumed held afterwards.
func (g *guardChecker) branch(body *ast.BlockStmt, held map[lockKey]int) {
	bh := cloneHeld(held)
	g.block(body.List, bh)
	if !terminates(body) {
		g.clearUnlocked(held, body)
	}
}

func (g *guardChecker) caseClauses(body *ast.BlockStmt, held map[lockKey]int) {
	for _, cs := range body.List {
		bh := cloneHeld(held)
		switch cs := cs.(type) {
		case *ast.CaseClause:
			for _, e := range cs.List {
				g.expr(e, bh, false)
			}
			g.block(cs.Body, bh)
			if !terminatesList(cs.Body) {
				g.clearUnlockedList(held, cs.Body)
			}
		case *ast.CommClause:
			if cs.Comm != nil {
				g.stmt(cs.Comm, bh)
			}
			g.block(cs.Body, bh)
			if !terminatesList(cs.Body) {
				g.clearUnlockedList(held, cs.Body)
			}
		}
	}
}

// deferredCall checks a go/defer call: arguments are evaluated at the
// statement (current lock state applies), the function body runs later
// (no lock state applies).
func (g *guardChecker) deferredCall(call *ast.CallExpr, held map[lockKey]int) {
	for _, a := range call.Args {
		g.expr(a, held, false)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		g.block(lit.Body.List, map[lockKey]int{})
	} else {
		g.expr(call.Fun, held, false)
	}
}

// expr checks every guarded-field access inside e. write marks the
// outermost expression as a mutation target (assignment LHS, ++/--,
// or address-of), which requires the full Lock.
func (g *guardChecker) expr(e ast.Expr, held map[lockKey]int, write bool) {
	if e == nil {
		return
	}
	if write {
		switch t := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if v, ok := g.guardedVarOf(t); ok {
				g.checkAccess(t, v, held, true)
			}
			g.expr(t.X, held, false)
			return
		case *ast.IndexExpr:
			// Writing an element mutates the guarded structure.
			g.expr(t.X, held, true)
			g.expr(t.Index, held, false)
			return
		case *ast.StarExpr:
			g.expr(t.X, held, false)
			return
		}
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure's body runs on its own schedule (deferred, pooled,
			// spawned); locks held here prove nothing there.
			g.block(n.Body.List, map[lockKey]int{})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				g.expr(n.X, held, true)
				return false
			}
		case *ast.SelectorExpr:
			if v, ok := g.guardedVarOf(n); ok {
				g.checkAccess(n, v, held, false)
			}
		}
		return true
	})
}

func (g *guardChecker) guardedVarOf(sel *ast.SelectorExpr) (*types.Var, bool) {
	v, ok := g.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok {
		return nil, false
	}
	_, annotated := g.guarded[v]
	return v, annotated
}

func (g *guardChecker) checkAccess(sel *ast.SelectorExpr, v *types.Var, held map[lockKey]int, write bool) {
	mu := g.guarded[v]
	key := lockKey{base: types.ExprString(sel.X), mu: mu}
	bits := held[key]
	switch {
	case write && bits&wheld == 0:
		hint := ""
		if bits&rheld != 0 {
			hint = " (RLock is not enough to write)"
		}
		g.pass.Reportf(sel.Sel.Pos(),
			"field %s is written without %s.%s held%s; it is declared `// guarded by %s`",
			v.Name(), key.base, mu, hint, mu)
	case !write && bits == 0:
		g.pass.Reportf(sel.Sel.Pos(),
			"field %s is read without %s.%s held; it is declared `// guarded by %s`",
			v.Name(), key.base, mu, mu)
	}
}

// lockCall parses expr as a Lock/RLock/Unlock/RUnlock call on a
// sync.Mutex or sync.RWMutex and returns the lock's identity.
func (g *guardChecker) lockCall(expr ast.Expr) (lockKey, string, bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return lockKey{}, "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockKey{}, "", false
	}
	fn, _ := g.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !methodOnNamed(fn, "sync", "Mutex") && !methodOnNamed(fn, "sync", "RWMutex") {
		return lockKey{}, "", false
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		return lockKey{base: types.ExprString(x.X), mu: x.Sel.Name}, op, true
	case *ast.Ident:
		return lockKey{base: "", mu: x.Name}, op, true
	}
	return lockKey{}, "", false
}

func applyLockOp(held map[lockKey]int, key lockKey, op string) {
	switch op {
	case "Lock":
		held[key] = rheld | wheld
	case "RLock":
		held[key] |= rheld
	case "Unlock", "RUnlock":
		delete(held, key)
	}
}

// clearUnlocked removes from held every lock that node (a conditional
// branch) unlocks anywhere, so a conditionally-released lock is not
// assumed held past the branch. Deferred unlocks and closure bodies do
// not run within the branch and are skipped.
func (g *guardChecker) clearUnlocked(held map[lockKey]int, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if key, op, ok := g.lockCall(n); ok && (op == "Unlock" || op == "RUnlock") {
				delete(held, key)
			}
		}
		return true
	})
}

func (g *guardChecker) clearUnlockedList(held map[lockKey]int, stmts []ast.Stmt) {
	for _, s := range stmts {
		g.clearUnlocked(held, s)
	}
}

func cloneHeld(held map[lockKey]int) map[lockKey]int {
	out := make(map[lockKey]int, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// terminates reports whether a block always transfers control out
// (return, break/continue/goto, panic, or os.Exit) as its last act, in
// which case its lock-state changes cannot flow past the enclosing
// branch.
func terminates(body *ast.BlockStmt) bool {
	return terminatesList(body.List)
}

func terminatesList(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Exit" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last)
	}
	return false
}
