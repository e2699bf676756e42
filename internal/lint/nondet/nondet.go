// Package nondet flags sources of run-to-run nondeterminism in the
// engine's score-affecting packages (DESIGN.md §16). The scores and stats
// the paper's similarity measures produce are pinned bit-identical across
// runs and across worker counts (internal/regress); that guarantee dies
// quietly the moment a hot path consults something the runtime is allowed
// to vary. Four such sources are banned here:
//
//  1. Map keys collected into a slice that is never sorted before use:
//     collection order is Go's randomized map order, and every later
//     iteration, hash, or fold over the slice inherits it. (maporder bans
//     the order-sensitive range itself; this rule checks the other half of
//     the collect-then-sort remedy.)
//  2. time.Now and math/rand in scoring or sketching code: wall-clock and
//     PRNG values braid scheduling luck into results. Deadline checks that
//     only trigger anytime degradation carry a justified allow.
//  3. select statements with two or more value-binding receive cases: when
//     several cases are ready the runtime picks pseudo-randomly, so the
//     binding order — and any fold over the received values — varies.
//  4. Goroutine results folded in channel-arrival order: ranging over a
//     channel and appending (or float-accumulating) folds values in
//     completion order, which the scheduler owns. Store results by task
//     index and fold in task order instead (the signature pipeline's
//     produce/commit scheduler, runBlocks, is the in-tree exemplar).
package nondet

import (
	"go/ast"
	"go/token"
	"go/types"

	"instcmp/internal/lint"
	"instcmp/internal/lint/flow"
)

// Analyzer is the nondet invariant checker.
var Analyzer = &lint.Analyzer{
	Name: "nondet",
	Doc: "forbid nondeterminism sources in score-affecting code: unsorted map-key " +
		"collection, wall-clock/PRNG reads, multi-ready selects, arrival-order folds",
	Run: run,
}

func run(pass *lint.Pass) ([]lint.Diagnostic, error) {
	var diags []lint.Diagnostic
	flow.EachBody(pass, func(b flow.Body) {
		diags = append(diags, checkUnsortedKeys(pass, b)...)
		diags = append(diags, checkSelects(pass, b)...)
		diags = append(diags, checkArrivalFolds(pass, b)...)
	})
	for _, f := range pass.Files {
		diags = append(diags, checkClockAndRand(pass, f)...)
	}
	return diags, nil
}

// checkUnsortedKeys flags slices grown from a map range that no later
// statement of the same body sorts: for k := range m { s = append(s, k) }
// with no sort.X(s…) / slices.Sort*(s…) afterwards.
func checkUnsortedKeys(pass *lint.Pass, b flow.Body) []lint.Diagnostic {
	type collection struct {
		obj  *types.Var
		pos  token.Pos // the range statement
		name string
	}
	var collected []collection
	flow.WalkSkipLits(b.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		flow.WalkSkipLits(rs.Body, func(inner ast.Node) bool {
			as, ok := inner.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := pass.ObjectOf(id).(*types.Var)
			if !ok || !flow.IsAppendOf(pass, as.Rhs[0], obj) {
				return true
			}
			collected = append(collected, collection{obj: obj, pos: rs.For, name: id.Name})
			return true
		})
		return true
	})
	var diags []lint.Diagnostic
	for _, c := range collected {
		if sortedAfter(pass, b.Body, c.obj, c.pos) {
			continue
		}
		diags = append(diags, lint.Diagnostic{
			Pos: c.pos,
			Message: "map keys collected into " + c.name + " are never sorted; every " +
				"iteration or hash over them inherits randomized map order — sort before use",
		})
	}
	return diags
}

// sortedAfter reports whether the body contains, after pos, a call into
// package sort or slices with the collected slice among its arguments.
// Nested literals count: a sort inside a closure still sorts.
func sortedAfter(pass *lint.Pass, body ast.Node, obj *types.Var, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		path, _ := flow.PkgFunc(pass, call)
		if path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if flow.RootVar(pass, arg) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkClockAndRand flags time.Now calls and any use of math/rand (v1 or
// v2) in the file.
func checkClockAndRand(pass *lint.Pass, f *ast.File) []lint.Diagnostic {
	var diags []lint.Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch path, name := flow.PkgFunc(pass, call); {
		case path == "time" && name == "Now":
			diags = append(diags, lint.Diagnostic{
				Pos: call.Pos(),
				Message: "time.Now in a score-affecting package: wall-clock reads braid " +
					"scheduling into results — budget with counters, or justify the allow",
			})
		case path == "math/rand" || path == "math/rand/v2":
			diags = append(diags, lint.Diagnostic{
				Pos: call.Pos(),
				Message: "math/rand in a score-affecting package: scores and sketches must " +
					"be reproducible — derive pseudo-randomness from seeded splitmix64 instead",
			})
		}
		return true
	})
	return diags
}

// checkSelects flags select statements in which two or more cases bind a
// received value: with several cases ready, the runtime chooses
// pseudo-randomly, so the winners vary run to run.
func checkSelects(pass *lint.Pass, b flow.Body) []lint.Diagnostic {
	var diags []lint.Diagnostic
	flow.WalkSkipLits(b.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		binding := 0
		for _, cl := range sel.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok || comm.Comm == nil {
				continue
			}
			if as, ok := comm.Comm.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
				if un, ok := as.Rhs[0].(*ast.UnaryExpr); ok && un.Op == token.ARROW {
					binding++
				}
			}
		}
		if binding >= 2 {
			diags = append(diags, lint.Diagnostic{
				Pos: sel.Select,
				Message: "select with multiple value-binding receives resolves ready cases " +
					"pseudo-randomly; commit results in task order through one channel instead",
			})
		}
		return true
	})
	return diags
}

// checkArrivalFolds flags range-over-channel loops whose body folds the
// received values in arrival order: appends, or non-integer compound
// accumulation. Integer counters commute exactly and index-targeted stores
// (results[r.idx] = r) are arrival-order-proof; both pass.
func checkArrivalFolds(pass *lint.Pass, b flow.Body) []lint.Diagnostic {
	var diags []lint.Diagnostic
	flow.WalkSkipLits(b.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isChan := t.Underlying().(*types.Chan); !isChan {
			return true
		}
		folds := false
		flow.WalkSkipLits(rs.Body, func(inner ast.Node) bool {
			as, ok := inner.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			switch as.Tok {
			case token.ASSIGN, token.DEFINE:
				if flow.IsAppendOf(pass, as.Rhs[0], nil) {
					folds = true
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if !flow.IsIntegral(pass, as.Lhs[0]) {
					folds = true
				}
			}
			return !folds
		})
		if folds {
			diags = append(diags, lint.Diagnostic{
				Pos: rs.For,
				Message: "goroutine results folded in channel-arrival order, which the " +
					"scheduler owns; store by task index and fold in task order",
			})
		}
		return true
	})
	return diags
}
