// Package markundo enforces the search-state discipline of the exact
// engine (DESIGN.md §11): a checkpoint taken with Env.Mark() must be rolled
// back with Undo on every path that leaves the enclosing function after the
// environment has been mutated under it. The branch-and-bound search leans
// on this invariant everywhere — a leaked mark means a leaked tuple pair
// and unifier merges, which corrupts every score evaluated afterwards.
//
// The analyzer recognizes any "markable" type structurally: a type with a
// Mark() method whose result feeds an Undo (or Rollback) method of the same
// type — match.Env and unify.Unifier both qualify, as do fixture doubles.
// It then walks each function with a branch-sensitive interpreter:
//
//   - m := env.Mark() begins tracking m as open.
//   - A mutating call on (or passing) env turns m dirty. Mutators used
//     directly as an if condition get polarity: `if env.TryAddPair(p)`
//     dirties only the then branch, `if !env.TryAddPair(p)` only the
//     fall-through — which is exactly why the engine's
//     mark/try/undo-on-success idiom is sound and accepted.
//   - env.Undo(m) (or Rollback, or a deferred Undo) closes m.
//   - A return, a loop-body exit, or falling off the function end while
//     some mark is dirty is reported.
//
// Marks that escape (stored, passed to other functions, captured by
// closures, returned) stop being tracked: responsibility moved elsewhere.
package markundo

import (
	"go/ast"
	"go/token"
	"go/types"

	"instcmp/internal/lint"
)

// Analyzer is the markundo invariant checker.
var Analyzer = &lint.Analyzer{
	Name: "markundo",
	Doc:  "every Env.Mark() must reach an Undo/Rollback on all mutated exit paths of the enclosing function",
	Run:  run,
}

// undoNames are the methods that close a mark.
var undoNames = map[string]bool{"Undo": true, "Rollback": true}

// readonlyNames are Env methods known not to mutate match state; calls to
// them never dirty an open mark. Everything not listed is treated as a
// mutator — staying conservative keeps the check sound for new methods.
var readonlyNames = map[string]bool{
	"Mark": true, "Pairs": true, "NumPairs": true, "FlatL": true, "FlatR": true,
	"LeftRow": true, "RightRow": true, "NumLeftTuples": true, "NumRightTuples": true,
	"LeftImage": true, "RightImage": true, "LeftDegree": true, "RightDegree": true,
	"Has": true, "ModeAllows": true, "CheckTotality": true, "IsComplete": true,
	"ValueMapping": true, "Stats": true, "WouldAccept": true,
}

type markState int

const (
	stOpen  markState = iota // mark taken, environment not mutated under it
	stDirty                  // environment mutated under the open mark
)

// markInfo tracks one live mark variable.
type markInfo struct {
	env     string // ExprString of the receiver the mark was taken from
	state   markState
	declPos token.Pos
}

// state maps tracked mark variables to their status. Copied at branches.
type state map[types.Object]*markInfo

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

// merge folds another branch's exit state in, keeping the worse status per
// variable (a variable closed or never declared in one branch but dirty in
// the other must stay dirty).
func (s state) merge(o state) {
	for k, v := range o {
		cur, ok := s[k]
		if !ok {
			c := *v
			s[k] = &c
			continue
		}
		if v.state > cur.state {
			cur.state = v.state
		}
	}
}

type checker struct {
	pass  *lint.Pass
	diags []lint.Diagnostic
	// markable caches the structural Mark/Undo detection per type.
	markable map[types.Type]bool
}

func run(pass *lint.Pass) ([]lint.Diagnostic, error) {
	c := &checker{pass: pass, markable: map[types.Type]bool{}}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					c.checkFunc(fn.Body)
				}
			case *ast.FuncLit:
				c.checkFunc(fn.Body)
			}
			return true
		})
	}
	return c.diags, nil
}

func (c *checker) report(pos token.Pos, msg string) {
	c.diags = append(c.diags, lint.Diagnostic{Pos: pos, Message: msg})
}

// checkFunc interprets one function body. Nested FuncLits are skipped here
// (run visits them as their own functions); marks they capture are treated
// as escaping.
func (c *checker) checkFunc(body *ast.BlockStmt) {
	st := state{}
	terminated := c.walkStmts(body.List, st)
	if !terminated {
		for obj, mi := range st {
			if mi.state == stDirty {
				c.report(mi.declPos, "mark "+obj.Name()+" is not undone before the function exits; "+
					"call "+mi.env+".Undo("+obj.Name()+") on every mutated path")
			}
		}
	}
}

// walkStmts interprets a statement list, mutating st to the fall-through
// state. It reports true when control cannot fall off the end of the list.
func (c *checker) walkStmts(list []ast.Stmt, st state) bool {
	for _, s := range list {
		if c.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (c *checker) walkStmt(s ast.Stmt, st state) (terminates bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.walkAssign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if !c.trackIfMark(name, vs.Values[i], st) {
							c.exprEffects(vs.Values[i], st)
						}
					}
				}
			}
		}
	case *ast.ExprStmt:
		if isPanic(s.X) {
			c.exprEffects(s.X, st)
			return true
		}
		c.exprEffects(s.X, st)
	case *ast.DeferStmt:
		// A deferred Undo covers every exit path at once.
		for _, obj := range c.undoTargets(s.Call, st) {
			delete(st, obj)
		}
		c.escapeInto(s.Call, st)
	case *ast.GoStmt:
		c.escapeInto(s.Call, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.exprEffects(r, st)
		}
		for obj, mi := range st {
			if mi.state == stDirty {
				c.report(s.Return, "return leaks mutations made under mark "+obj.Name()+
					"; call "+mi.env+".Undo("+obj.Name()+") before returning")
			}
		}
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		thenSt, elseSt := st.clone(), st.clone()
		c.condEffects(s.Cond, st, thenSt, elseSt)
		thenTerm := c.walkStmts(s.Body.List, thenSt)
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.walkStmt(s.Else, elseSt)
		}
		clear(st)
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			st.merge(elseSt)
		case elseTerm:
			st.merge(thenSt)
		default:
			st.merge(thenSt)
			st.merge(elseSt)
		}
	case *ast.BlockStmt:
		return c.walkStmts(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			c.exprEffects(s.Cond, st)
		}
		bodySt := st.clone()
		c.walkStmts(s.Body.List, bodySt)
		if s.Post != nil {
			c.walkStmt(s.Post, bodySt)
		}
		c.loopExit(s.For, st, bodySt)
	case *ast.RangeStmt:
		c.exprEffects(s.X, st)
		bodySt := st.clone()
		c.walkStmts(s.Body.List, bodySt)
		c.loopExit(s.For, st, bodySt)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		c.walkCases(s, st)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto leave the list; leak detection for the loop
		// body happens at loopExit, so no per-branch check here.
		return true
	case *ast.IncDecStmt:
		c.exprEffects(s.X, st)
	case *ast.SendStmt:
		c.exprEffects(s.Chan, st)
		c.exprEffects(s.Value, st)
	}
	return false
}

// loopExit folds a loop body's exit state into the surrounding state and
// reports marks declared inside the body that end an iteration dirty: the
// next iteration (or the loop exit) would run with leaked state.
func (c *checker) loopExit(loopPos token.Pos, st, bodySt state) {
	for obj, mi := range bodySt {
		if _, outer := st[obj]; !outer && mi.state == stDirty {
			c.report(loopPos, "mark "+obj.Name()+" does not reach "+mi.env+
				".Undo on every path through the loop body")
			delete(bodySt, obj)
		}
	}
	st.merge(bodySt)
}

// walkCases handles switch/type-switch/select uniformly: every clause runs
// on a copy of the entry state and non-terminating clauses merge back, as
// does the implicit no-match path when there is no default clause.
func (c *checker) walkCases(s ast.Stmt, st state) {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			c.exprEffects(s.Tag, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	merged := state{}
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			stmts = cl.Body
		}
		clSt := st.clone()
		if !c.walkStmts(stmts, clSt) {
			merged.merge(clSt)
		}
	}
	if !hasDefault {
		merged.merge(st)
	}
	clear(st)
	st.merge(merged)
}

// walkAssign tracks new marks and applies expression effects.
func (c *checker) walkAssign(s *ast.AssignStmt, st state) {
	justTracked := map[ast.Expr]bool{}
	for i, rhs := range s.Rhs {
		var lhs ast.Expr
		if len(s.Lhs) == len(s.Rhs) {
			lhs = s.Lhs[i]
		}
		if id, ok := lhs.(*ast.Ident); ok && s.Tok == token.DEFINE && c.trackIfMark(id, rhs, st) {
			justTracked[lhs] = true
			continue
		}
		c.exprEffects(rhs, st)
	}
	// Reassigning or shadowing a tracked variable ends its tracking.
	for _, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && !justTracked[lhs] {
			if obj := c.pass.ObjectOf(id); obj != nil {
				delete(st, obj)
			}
		}
	}
}

// trackIfMark begins tracking lhs when rhs is a Mark() call on a markable
// receiver, reporting whether it did.
func (c *checker) trackIfMark(lhs *ast.Ident, rhs ast.Expr, st state) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Mark" || len(call.Args) != 0 {
		return false
	}
	if !c.isMarkable(c.pass.TypeOf(sel.X)) {
		return false
	}
	if lhs.Name == "_" {
		return true
	}
	obj := c.pass.ObjectOf(lhs)
	if obj == nil {
		return false
	}
	st[obj] = &markInfo{env: types.ExprString(sel.X), state: stOpen, declPos: lhs.Pos()}
	return true
}

// condEffects applies an if condition's effects with mutator polarity: a
// bare mutator call dirties only the then branch, a negated one only the
// else branch; a mutator buried in a compound condition dirties both.
func (c *checker) condEffects(cond ast.Expr, st, thenSt, elseSt state) {
	if env, ok := c.mutatorCall(cond); ok {
		dirtyEnv(thenSt, env)
		return
	}
	if neg, ok := cond.(*ast.UnaryExpr); ok && neg.Op == token.NOT {
		if env, ok := c.mutatorCall(neg.X); ok {
			dirtyEnv(elseSt, env)
			return
		}
	}
	// Compound (or effect-free) condition: fall back to plain effects on
	// every branch state.
	for _, s := range []state{st, thenSt, elseSt} {
		c.exprEffects(cond, s)
	}
}

// mutatorCall reports whether the expression is exactly one mutating call
// on a markable receiver, returning the receiver's rendering.
func (c *checker) mutatorCall(e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if !c.isMarkable(c.pass.TypeOf(sel.X)) {
		return "", false
	}
	name := sel.Sel.Name
	if readonlyNames[name] || undoNames[name] {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// exprEffects applies the mark-relevant effects of evaluating an
// expression: mutator calls dirty matching open marks, Undo calls close
// them, and any other use of a tracked mark variable ends its tracking
// (the mark escaped).
func (c *checker) exprEffects(e ast.Expr, st state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures are analyzed as their own functions; captured
			// marks escape.
			c.escapeIdents(n.Body, st)
			return false
		case *ast.CallExpr:
			c.callEffects(n, st)
		case *ast.Ident:
			// A bare use of a tracked mark outside Undo argument position
			// (handled in callEffects before descending here) means the
			// mark escaped: stored, compared, or passed along.
			if obj := c.pass.ObjectOf(n); obj != nil {
				delete(st, obj)
			}
		}
		return true
	})
}

// callEffects applies one call's effects and removes Undo-argument
// identifiers from escape consideration by closing them first.
func (c *checker) callEffects(call *ast.CallExpr, st state) {
	for _, obj := range c.undoTargets(call, st) {
		delete(st, obj)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && c.isMarkable(c.pass.TypeOf(sel.X)) {
		name := sel.Sel.Name
		if !readonlyNames[name] && !undoNames[name] {
			dirtyEnv(st, types.ExprString(sel.X))
		}
	}
	// Passing the environment itself into any call may mutate it
	// (signature.RunEnv(ctx, env, ...) does exactly that).
	for _, arg := range call.Args {
		if c.isMarkable(c.pass.TypeOf(arg)) {
			dirtyEnv(st, types.ExprString(arg))
		}
	}
}

// undoTargets returns the tracked marks closed by this call if it is an
// Undo/Rollback on a markable receiver.
func (c *checker) undoTargets(call *ast.CallExpr, st state) []types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !undoNames[sel.Sel.Name] || !c.isMarkable(c.pass.TypeOf(sel.X)) {
		return nil
	}
	var out []types.Object
	for _, arg := range call.Args {
		if id, ok := arg.(*ast.Ident); ok {
			if obj := c.pass.ObjectOf(id); obj != nil {
				if _, tracked := st[obj]; tracked {
					out = append(out, obj)
				}
			}
		}
	}
	return out
}

// escapeInto ends tracking for marks referenced anywhere under the node.
func (c *checker) escapeInto(call *ast.CallExpr, st state) {
	c.escapeIdents(call, st)
}

func (c *checker) escapeIdents(n ast.Node, st state) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.ObjectOf(id); obj != nil {
				delete(st, obj)
			}
		}
		return true
	})
}

// dirtyEnv marks every open mark taken from the given receiver rendering
// as mutated.
func dirtyEnv(st state, env string) {
	for _, mi := range st {
		if mi.env == env {
			mi.state = stDirty
		}
	}
}

// isMarkable reports whether t (or *t) has a Mark() method whose result
// type is the parameter of an Undo or Rollback method — the structural
// signature of the engine's checkpoint/rollback protocol.
func (c *checker) isMarkable(t types.Type) bool {
	if t == nil {
		return false
	}
	if v, ok := c.markable[t]; ok {
		return v
	}
	c.markable[t] = false // cut recursion
	ms := types.NewMethodSet(t)
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		ms = types.NewMethodSet(types.NewPointer(t))
	}
	var markResult types.Type
	if m := lookupMethod(ms, "Mark"); m != nil {
		sig := m.Type().(*types.Signature)
		if sig.Params().Len() == 0 && sig.Results().Len() == 1 {
			markResult = sig.Results().At(0).Type()
		}
	}
	ok := false
	if markResult != nil {
		for name := range undoNames {
			if u := lookupMethod(ms, name); u != nil {
				sig := u.Type().(*types.Signature)
				if sig.Params().Len() == 1 && types.Identical(sig.Params().At(0).Type(), markResult) {
					ok = true
					break
				}
			}
		}
	}
	c.markable[t] = ok
	return ok
}

func lookupMethod(ms *types.MethodSet, name string) types.Object {
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i); m.Obj().Name() == name {
			return m.Obj()
		}
	}
	return nil
}

func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
