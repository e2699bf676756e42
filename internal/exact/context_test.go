package exact

import (
	"context"
	"testing"
	"time"

	"instcmp/internal/match"
	"instcmp/internal/model"
)

// hardInstances builds a pair of instances whose general-mode search space
// (rows² pairs, 2^(rows²) subsets) cannot be exhausted in test time: an
// all-null left against a mixed null/constant right, so the warm start cannot
// reach the root's optimistic bound (constants only earn λ against nulls) and
// the search actually descends.
func hardInstances(rows int) (*model.Instance, *model.Instance) {
	l := make([][]model.Value, rows)
	r := make([][]model.Value, rows)
	for i := range l {
		l[i] = []model.Value{n(model.Nullf("L%d", i).Raw()), n(model.Nullf("LL%d", i).Raw())}
		r[i] = []model.Value{n(model.Nullf("R%d", i).Raw()), c(model.Constf("k%d", i).Raw())}
	}
	return build(l), build(r)
}

// TestContextPreCanceled: a context canceled before the call returns promptly
// with the warm incumbent and Stopped = StoppedCanceled; no search runs.
func TestContextPreCanceled(t *testing.T) {
	l, r := hardInstances(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := Run(ctx, l, r, match.ManyToMany, Options{Lambda: lambda, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pre-canceled run took %v", elapsed)
	}
	if res.Stopped != StoppedCanceled {
		t.Errorf("Stopped = %q, want %q", res.Stopped, StoppedCanceled)
	}
	if res.Exhaustive {
		t.Error("canceled run reported exhaustive")
	}
}

// TestContextCancelMidSearch: cancellation mid-search returns promptly
// (within the node-loop poll interval) for both the solo and the parallel
// engine, keeping the best incumbent found so far — at minimum the warm
// start's match.
func TestContextCancelMidSearch(t *testing.T) {
	l, r := hardInstances(12)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		res, err := Run(ctx, l, r, match.ManyToMany, Options{Lambda: lambda, Workers: workers})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if res.Exhaustive {
			t.Logf("workers=%d: search finished before the cancel (fast machine); no assertion", workers)
			continue
		}
		if res.Stopped != StoppedCanceled {
			t.Errorf("workers=%d: Stopped = %q, want %q", workers, res.Stopped, StoppedCanceled)
		}
		// Polls happen at least every soloPollInterval (solo) or
		// nodeFlushBatch (parallel) nodes, each node being microseconds:
		// seconds of overshoot would mean cancellation is broken.
		if elapsed > 5*time.Second {
			t.Errorf("workers=%d: canceled search ran %v", workers, elapsed)
		}
		if res.WarmScore >= 0 && res.Score < res.WarmScore {
			t.Errorf("workers=%d: canceled score %v below warm incumbent %v", workers, res.Score, res.WarmScore)
		}
	}
}

// TestTimeoutOvershootBounded pins the Options.Timeout contract: the solo
// engine polls the deadline every soloPollInterval nodes, so the search stops
// within a bounded overshoot of the deadline rather than running the tree to
// the end.
func TestTimeoutOvershootBounded(t *testing.T) {
	l, r := hardInstances(12)
	const budget = 50 * time.Millisecond
	start := time.Now()
	res, err := Run(context.Background(), l, r, match.ManyToMany,
		Options{Lambda: lambda, Timeout: budget, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if res.Exhaustive {
		t.Fatal("12-row all-null general search cannot be exhausted within the timeout")
	}
	if res.Stopped != StoppedTimeout {
		t.Errorf("Stopped = %q, want %q", res.Stopped, StoppedTimeout)
	}
	// soloPollInterval nodes between deadline polls, microseconds per node:
	// the overshoot must stay far below seconds even on a loaded CI box.
	if elapsed > budget+2*time.Second {
		t.Errorf("timeout overshot: ran %v against a %v budget", elapsed, budget)
	}
	if res.WarmScore >= 0 && res.Score < res.WarmScore {
		t.Errorf("timed-out score %v below warm incumbent %v", res.Score, res.WarmScore)
	}
}

// TestStatsPopulated: an exhaustive run reports its node, prune, improvement,
// and pair-attempt counters, and collecting them does not change the score.
func TestStatsPopulated(t *testing.T) {
	l := build([][]model.Value{{c("a"), n("N1")}, {c("x"), n("N2")}})
	r := build([][]model.Value{{c("a"), c("b")}, {c("x"), n("V1")}})
	// Cold run: the first leaf always improves on the empty incumbent, so
	// Improvements must be positive (a warm-started run may start optimal).
	res, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: lambda, Workers: 1, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes == 0 {
		t.Error("Nodes = 0 after a real search")
	}
	if res.Improvements == 0 {
		t.Error("Improvements = 0 after finding a best leaf")
	}
	if res.EnvStats.PairAttempts == 0 {
		t.Error("EnvStats.PairAttempts = 0 after a search that adds pairs")
	}
	par, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: lambda, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Score != res.Score {
		t.Errorf("stats collection perturbed the score: %v vs %v", par.Score, res.Score)
	}
	if par.EnvStats.PairAttempts == 0 {
		t.Error("parallel EnvStats.PairAttempts = 0: worker clones not aggregated")
	}
}
