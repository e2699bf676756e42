// Package wgdiscipline enforces worker-pool hygiene module-wide
// (DESIGN.md §16). Every parallel stage in the engine — the signature
// produce/commit scheduler, parallel scoring, lake fan-out, the serve
// worker pool — follows the same shape: Add before
// go, one Wait on every path out, close only what no worker still writes,
// and never share a mutable loop variable with a goroutine. Each rule
// guards a failure mode the race detector only sees on lucky schedules:
//
//   - WaitGroup.Add inside the spawned goroutine races the Wait: the main
//     goroutine can reach Wait before the worker ran Add and return while
//     work is still in flight.
//   - An Add with no Wait (or a return path that skips the Wait) leaks
//     goroutines past the function's lifetime — with workers that read
//     the caller's scratch buffers, that is a use-after-return.
//   - close(ch) while spawned workers still send on ch is a panic on a
//     schedule where a worker loses the race.
//   - A goroutine capturing a variable that the enclosing loop reassigns
//     reads whatever iteration the scheduler lands on (loop-DECLARED
//     variables are per-iteration since go1.22 and are fine; flagged is
//     the var declared before the loop and written inside it).
package wgdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"instcmp/internal/lint"
	"instcmp/internal/lint/flow"
)

// Analyzer is the wgdiscipline invariant checker.
var Analyzer = &lint.Analyzer{
	Name: "wgdiscipline",
	Doc: "worker-pool hygiene: Add before go, Wait on all return paths, no close " +
		"of channels workers still write, no shared loop variables in go closures",
	Run: run,
}

func run(pass *lint.Pass) ([]lint.Diagnostic, error) {
	var diags []lint.Diagnostic
	flow.EachBody(pass, func(b flow.Body) {
		diags = append(diags, checkAddPlacement(pass, b)...)
		diags = append(diags, checkWaitCoverage(pass, b)...)
		diags = append(diags, checkCloseRaces(pass, b)...)
		diags = append(diags, checkLoopCapture(pass, b)...)
	})
	return diags, nil
}

// wgCall resolves a call to Add/Done/Wait on a sync.WaitGroup value and
// returns the waitgroup variable, or nil.
func wgCall(pass *lint.Pass, call *ast.CallExpr, method string) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	v := flow.RootVar(pass, sel.X)
	if v == nil || !flow.IsNamed(pass.TypeOf(sel.X), "sync", "WaitGroup") {
		return nil
	}
	return v
}

// checkAddPlacement flags wg.Add called inside a go-spawned function
// literal on a waitgroup declared outside it: the spawning side can reach
// Wait before the goroutine was scheduled, so the Add must happen before
// the go statement.
func checkAddPlacement(pass *lint.Pass, b flow.Body) []lint.Diagnostic {
	var diags []lint.Diagnostic
	for _, lit := range flow.GoLits(b.Body) {
		flow.WalkSkipLits(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			wg := wgCall(pass, call, "Add")
			if wg == nil || flow.Within(wg.Pos(), lit) {
				return true
			}
			diags = append(diags, lint.Diagnostic{
				Pos: call.Pos(),
				Message: "WaitGroup.Add inside the spawned goroutine races Wait; " +
					"Add before the go statement",
			})
			return true
		})
	}
	return diags
}

// checkWaitCoverage flags waitgroups that are Added but never Waited, and
// return paths positioned after an Add with no Wait in between (a deferred
// Wait covers every path).
func checkWaitCoverage(pass *lint.Pass, b flow.Body) []lint.Diagnostic {
	// Track waitgroups declared in this body: fields and parameters have a
	// lifecycle the function alone cannot prove anything about.
	type usage struct {
		adds, waits []token.Pos
		deferred    bool
		name        string
	}
	track := map[*types.Var]*usage{}
	flow.WalkSkipLits(b.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if wg := wgCall(pass, call, "Add"); wg != nil && flow.Within(wg.Pos(), b.Body) {
			u := track[wg]
			if u == nil {
				u = &usage{name: wg.Name()}
				track[wg] = u
			}
			u.adds = append(u.adds, call.Pos())
		}
		return true
	})
	if len(track) == 0 {
		return nil
	}
	// Waits count wherever they appear — main body, deferred closure, or a
	// fan-in goroutine (the close-race rule audits those separately).
	ast.Inspect(b.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(inner ast.Node) bool {
					if call, ok := inner.(*ast.CallExpr); ok {
						if wg := wgCall(pass, call, "Wait"); wg != nil && track[wg] != nil {
							track[wg].deferred = true
						}
					}
					return true
				})
			}
			if wg := wgCall(pass, n.Call, "Wait"); wg != nil && track[wg] != nil {
				track[wg].deferred = true
			}
		case *ast.CallExpr:
			if wg := wgCall(pass, n, "Wait"); wg != nil && track[wg] != nil {
				track[wg].waits = append(track[wg].waits, n.Pos())
			}
		}
		return true
	})
	var diags []lint.Diagnostic
	for _, u := range track {
		if len(u.waits) == 0 && !u.deferred {
			diags = append(diags, lint.Diagnostic{
				Pos: u.adds[0],
				Message: "WaitGroup " + u.name + " is Added but never Waited; " +
					"spawned goroutines outlive the function",
			})
			continue
		}
		if u.deferred {
			continue
		}
		for _, ret := range returnPoints(b.Body) {
			if latestBefore(u.adds, ret) > latestBefore(u.waits, ret) {
				diags = append(diags, lint.Diagnostic{
					Pos: ret,
					Message: "return path after " + u.name + ".Add skips " + u.name +
						".Wait; goroutines spawned above are still running",
				})
			}
		}
	}
	return diags
}

// returnPoints lists the body's explicit returns (outside nested literals)
// plus the implicit fall-off-the-end point when the last statement is not a
// return.
func returnPoints(body *ast.BlockStmt) []token.Pos {
	var out []token.Pos
	flow.WalkSkipLits(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			out = append(out, r.Pos())
		}
		return true
	})
	if n := len(body.List); n == 0 {
		return out
	} else if _, ok := body.List[n-1].(*ast.ReturnStmt); !ok {
		out = append(out, body.Rbrace)
	}
	return out
}

// latestBefore returns the largest position in ps strictly before pos, or
// token.NoPos.
func latestBefore(ps []token.Pos, pos token.Pos) token.Pos {
	best := token.NoPos
	for _, p := range ps {
		if p < pos && p > best {
			best = p
		}
	}
	return best
}

// checkCloseRaces flags close(ch) on a channel that go-spawned workers in
// the same body still send on, unless a WaitGroup.Wait is positioned
// between spawn and close (in the main body, or earlier in the same fan-in
// goroutine for the go func() { wg.Wait(); close(ch) }() shape).
func checkCloseRaces(pass *lint.Pass, b flow.Body) []lint.Diagnostic {
	// Channels sent to inside go-spawned literals.
	sentInWorker := map[*types.Var]bool{}
	for _, lit := range flow.GoLits(b.Body) {
		flow.WalkSkipLits(lit.Body, func(n ast.Node) bool {
			if send, ok := n.(*ast.SendStmt); ok {
				if v := flow.RootVar(pass, send.Chan); v != nil {
					sentInWorker[v] = true
				}
			}
			return true
		})
	}
	if len(sentInWorker) == 0 {
		return nil
	}
	var diags []lint.Diagnostic
	// check inspects one region (the main body or one goroutine literal)
	// for close calls; a Wait earlier in the same region clears them.
	check := func(region ast.Node) {
		flow.WalkSkipLits(region, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "close" || len(call.Args) != 1 {
				return true
			}
			if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); !isBuiltin {
				return true
			}
			ch := flow.RootVar(pass, call.Args[0])
			if ch == nil || !sentInWorker[ch] {
				return true
			}
			waited := flow.Scan(region, func(inner ast.Node) bool {
				c, ok := inner.(*ast.CallExpr)
				return ok && c.Pos() < call.Pos() && wgCall(pass, c, "Wait") != nil
			})
			if !waited {
				diags = append(diags, lint.Diagnostic{
					Pos: call.Pos(),
					Message: "close(" + ch.Name() + ") while spawned workers still send on it " +
						"panics on an unlucky schedule; Wait for the workers first",
				})
			}
			return true
		})
	}
	check(b.Body)
	for _, lit := range flow.GoLits(b.Body) {
		check(lit.Body)
	}
	return diags
}

// checkLoopCapture flags goroutine literals inside a loop that capture a
// variable declared before the loop and reassigned inside it — the one
// loop-capture shape go1.22 per-iteration variables did not fix.
func checkLoopCapture(pass *lint.Pass, b flow.Body) []lint.Diagnostic {
	var diags []lint.Diagnostic
	flow.WalkSkipLits(b.Body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			loopBody = loop.Body
		case *ast.RangeStmt:
			loopBody = loop.Body
		default:
			return true
		}
		loopPos := n.Pos()
		// Variables assigned (as plain identifiers) anywhere in the loop,
		// including its header, outside goroutine literals.
		assigned := map[*types.Var]bool{}
		flow.WalkSkipLits(n, func(inner ast.Node) bool {
			switch s := inner.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if v, ok := pass.ObjectOf(id).(*types.Var); ok {
							assigned[v] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if id, ok := s.X.(*ast.Ident); ok {
					if v, ok := pass.ObjectOf(id).(*types.Var); ok {
						assigned[v] = true
					}
				}
			}
			return true
		})
		for _, lit := range flow.GoLits(loopBody) {
			seen := map[*types.Var]bool{}
			ast.Inspect(lit.Body, func(inner ast.Node) bool {
				id, ok := inner.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := pass.Info.Uses[id].(*types.Var)
				if !ok || seen[v] || flow.Within(v.Pos(), lit) {
					return true
				}
				// Declared before the loop, reassigned inside it, read by
				// the goroutine: the classic shared-variable capture.
				if v.Pos() < loopPos && assigned[v] {
					seen[v] = true
					diags = append(diags, lint.Diagnostic{
						Pos: id.Pos(),
						Message: "goroutine captures " + v.Name() + ", which the enclosing " +
							"loop reassigns; pass it as an argument or declare it per-iteration",
					})
				}
				return true
			})
		}
		return true
	})
	return diags
}
