// Package fixture seeds ctxpoll violations and the engine's legal polling
// patterns.
package fixture

import (
	"context"
	"net/http"
	"sync/atomic"
)

type runner struct{ ctx context.Context }

// canceled is a polling helper: calling it counts as a poll anywhere.
func (r *runner) canceled() bool { return r.ctx.Err() != nil }

// inner is a loopy helper: calling it from a loop makes that loop nested.
func inner(row []int) int {
	t := 0
	for _, v := range row {
		t += v
	}
	return t
}

// scanUnpolled is the satellite-required seed: a nested scan loop with no
// cancellation poll anywhere.
func scanUnpolled(rows [][]int) int {
	total := 0
	for _, row := range rows { // want "never polls for cancellation"
		for _, v := range row {
			total += v
		}
	}
	return total
}

// callsLoopy hides the inner loop behind a package-local call; the fixed
// point still sees it.
func callsLoopy(rows [][]int) int {
	total := 0
	for _, row := range rows { // want "never polls for cancellation"
		total += inner(row)
	}
	return total
}

// scanCtx polls the context directly.
func scanCtx(ctx context.Context, rows [][]int) int {
	total := 0
	for _, row := range rows {
		if ctx.Err() != nil {
			return total
		}
		for _, v := range row {
			total += v
		}
	}
	return total
}

// scanHelper polls through a package-local helper, like the engine's
// batched canceled() checks.
func scanHelper(r *runner, rows [][]int) int {
	total := 0
	for i, row := range rows {
		if i%1024 == 0 && r.canceled() {
			return total
		}
		total += inner(row)
	}
	return total
}

// scanStopFlag polls an atomic stop flag shared by a pool's workers.
type worker struct{ stop atomic.Bool }

func (w *worker) drain(rows [][]int) int {
	total := 0
	for _, row := range rows {
		if w.stop.Load() {
			return total
		}
		total += inner(row)
	}
	return total
}

// flatLoop has no nested work: latency is one iteration, exempt.
func flatLoop(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// boundedScan is deliberately unpolled and carries the justified escape
// hatch the engine uses for provably tiny scans.
func boundedScan(grid *[8][8]int) int {
	t := 0
	//instlint:allow ctxpoll -- 8x8 worst case, completes in nanoseconds
	for _, row := range grid {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// workerLoopUnpolled seeds the parallel-pipeline shape: a worker goroutine
// draining a token channel, doing nested per-block row work, and never
// polling. The FuncLit is analyzed as its own function, so the claim loop
// itself must carry the diagnostic.
func workerLoopUnpolled(tokens chan struct{}, blocks [][]int, out chan<- int) {
	go func() {
		for range tokens { // want "never polls for cancellation"
			t := 0
			for _, v := range blocks[0] {
				t += v
			}
			out <- t
		}
	}()
}

// workerLoopPolled is the compliant variant every produce closure in the
// signature pipeline follows: the block body polls the context before the
// nested scan.
func workerLoopPolled(ctx context.Context, tokens chan struct{}, blocks [][]int, out chan<- int) {
	go func() {
		for range tokens {
			if ctx.Err() != nil {
				return
			}
			t := 0
			for _, v := range blocks[0] {
				t += v
			}
			out <- t
		}
	}()
}

// goroutineBody: the literal is its own function; its polled loop is fine
// and the spawning loop is flat.
func goroutineBody(ctx context.Context, rows [][]int, out chan<- int) {
	for i := range rows {
		row := rows[i]
		go func() {
			t := 0
			for _, v := range row {
				if ctx.Err() != nil {
					return
				}
				t += v
			}
			out <- t
		}()
	}
}

// process/processContext is the engine's one-shot wrapper shape. process
// itself holds no context, so its Background() is the legal idiom — the
// reach rule must stay quiet here.
func processContext(ctx context.Context, rows [][]int) int {
	total := 0
	for _, row := range rows {
		if ctx.Err() != nil {
			return total
		}
		total += inner(row)
	}
	return total
}

func process(rows [][]int) int {
	return processContext(context.Background(), rows)
}

// reachFresh holds a ctx and mints a fresh one anyway: the cancel signal
// dies here.
func reachFresh(ctx context.Context, rows [][]int) int {
	return processContext(context.Background(), rows) // want "mints a fresh context"
}

// reachTODO: context.TODO is the same bug wearing a different name.
func reachTODO(ctx context.Context, rows [][]int) int {
	return processContext(context.TODO(), rows) // want "mints a fresh context"
}

// reachWrapper drops its ctx by calling the ctx-less wrapper of a
// context-aware sibling.
func reachWrapper(ctx context.Context, rows [][]int) int {
	return process(rows) // want "drops the in-scope context"
}

// reachHandler: an *http.Request parameter counts as an in-scope context —
// r.Context() is one call away.
func reachHandler(w http.ResponseWriter, r *http.Request, rows [][]int) int {
	return process(rows) // want "drops the in-scope context"
}

// reachHandlerOK threads the request context like the serve handlers do.
func reachHandlerOK(w http.ResponseWriter, r *http.Request, rows [][]int) int {
	return processContext(r.Context(), rows)
}

// reachThreaded passes its ctx on: nothing to flag (WithTimeout derives,
// it does not discard).
func reachThreaded(ctx context.Context, rows [][]int) int {
	ctx, cancel := context.WithTimeout(ctx, 0)
	defer cancel()
	return processContext(ctx, rows)
}

// reachLiteral: a context-less closure inside a ctx-bearing function is
// judged by its own (empty) parameter list.
func reachLiteral(ctx context.Context, rows [][]int) func() int {
	return func() int { return process(rows) }
}

// reachAllowed carries the justified escape hatch.
func reachAllowed(ctx context.Context, rows [][]int) int {
	//instlint:allow ctxpoll -- detached audit pass, must outlive the request
	return processContext(context.Background(), rows)
}
