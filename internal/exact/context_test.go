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
	res, err := Run(ctx, l, r, match.ManyToMany, Options{Lambda: lambda})
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
// (within the node-loop poll interval), keeping the best incumbent found so
// far — at minimum the warm start's match.
func TestContextCancelMidSearch(t *testing.T) {
	l, r := hardInstances(12)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Run(ctx, l, r, match.ManyToMany, Options{Lambda: lambda})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if res.Exhaustive {
		t.Log("search finished before the cancel (fast machine); no assertion")
		return
	}
	if res.Stopped != StoppedCanceled {
		t.Errorf("Stopped = %q, want %q", res.Stopped, StoppedCanceled)
	}
	// Polls happen every pollInterval nodes, each node being microseconds:
	// seconds of overshoot would mean cancellation is broken.
	if elapsed > 5*time.Second {
		t.Errorf("canceled search ran %v", elapsed)
	}
	if res.WarmScore >= 0 && res.Score < res.WarmScore {
		t.Errorf("canceled score %v below warm incumbent %v", res.Score, res.WarmScore)
	}
}

// TestTimeoutOvershootBounded pins the Options.Timeout contract: the search
// polls the deadline every pollInterval nodes, so the search stops
// within a bounded overshoot of the deadline rather than running the tree to
// the end.
func TestTimeoutOvershootBounded(t *testing.T) {
	l, r := hardInstances(12)
	const budget = 50 * time.Millisecond
	start := time.Now()
	res, err := Run(context.Background(), l, r, match.ManyToMany,
		Options{Lambda: lambda, Timeout: budget})
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
	// pollInterval nodes between deadline polls, microseconds per node:
	// the overshoot must stay far below seconds even on a loaded CI box.
	if elapsed > budget+2*time.Second {
		t.Errorf("timeout overshot: ran %v against a %v budget", elapsed, budget)
	}
	if res.WarmScore >= 0 && res.Score < res.WarmScore {
		t.Errorf("timed-out score %v below warm incumbent %v", res.Score, res.WarmScore)
	}
}

// TestStatsPopulated: an exhaustive run reports its node, prune, improvement,
// and pair-attempt counters, and a second run reproduces every one of them.
func TestStatsPopulated(t *testing.T) {
	l := build([][]model.Value{{c("a"), n("N1")}, {c("x"), n("N2")}})
	r := build([][]model.Value{{c("a"), c("b")}, {c("x"), n("V1")}})
	// Cold run: the first leaf always improves on the empty incumbent, so
	// Improvements must be positive (a warm-started run may start optimal).
	opt := Options{Lambda: lambda, NoWarmStart: true}
	res, err := Run(context.Background(), l, r, match.OneToOne, opt)
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
	again, err := Run(context.Background(), l, r, match.OneToOne, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Score != res.Score || again.Nodes != res.Nodes || again.Prunes != res.Prunes ||
		again.Improvements != res.Improvements || again.EnvStats != res.EnvStats {
		t.Errorf("rerun differs: %+v vs %+v", again, res)
	}
}
