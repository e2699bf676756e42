package exact

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"instcmp/internal/datasets"
	"instcmp/internal/generator"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/score"
)

// randomInstance builds a noisy instance for engine-equivalence tests:
// enough overlap that matches exist, enough nulls that the search branches.
func randomInstance(rng *rand.Rand, side string, rows, cols, vals int, nullPct float64) *model.Instance {
	in := model.NewInstance()
	attrs := make([]string, cols)
	for j := range attrs {
		attrs[j] = string(rune('A' + j))
	}
	in.AddRelation("R", attrs...)
	for i := 0; i < rows; i++ {
		row := make([]model.Value, cols)
		for j := range row {
			if rng.Float64() < nullPct {
				row[j] = model.Nullf("%s_%d_%d", side, i, j)
			} else {
				row[j] = model.Constf("c%d", rng.Intn(vals))
			}
		}
		in.Append("R", row...)
	}
	return in
}

// TestEngineVariantsBitIdentical: the score is bit-identical (==, not
// approximately equal) with and without the warm start.
func TestEngineVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	modes := []match.Mode{match.OneToOne, match.Functional, match.ManyToMany}
	for trial := 0; trial < 12; trial++ {
		rows := 4 + trial%3
		l := randomInstance(rng, "L", rows, 3, 4, 0.3)
		r := randomInstance(rng, "R", rows, 3, 4, 0.3)
		mode := modes[trial%len(modes)]

		variants := []Options{
			{Lambda: lambda},
			{Lambda: lambda, NoWarmStart: true},
		}
		var ref *Result
		for vi, opt := range variants {
			res, err := Run(context.Background(), l, r, mode, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exhaustive {
				t.Fatalf("trial %d variant %d: unbudgeted search not exhaustive", trial, vi)
			}
			if vi == 0 {
				ref = res
				continue
			}
			if res.Score != ref.Score {
				t.Fatalf("trial %d mode %v variant %+v: score %v != reference %v",
					trial, mode, opt, res.Score, ref.Score)
			}
		}
	}
}

// TestWarmStartSeedsIncumbent: a general-mode search reports the signature
// score it started from, and on instances where the signature is optimal
// the search just certifies it.
func TestWarmStartSeedsIncumbent(t *testing.T) {
	l := build([][]model.Value{{c("a"), c("b")}, {c("x"), n("N1")}})
	r := build([][]model.Value{{c("a"), c("b")}, {c("x"), n("V1")}})
	res, err := Run(context.Background(), l, r, match.ManyToMany, Options{Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.WarmScore-1) > 1e-9 {
		t.Errorf("WarmScore = %v, want 1 (signature finds the isomorphism)", res.WarmScore)
	}
	if res.Score != 1 {
		t.Errorf("score = %v, want 1", res.Score)
	}
	cold, err := Run(context.Background(), l, r, match.ManyToMany, Options{Lambda: lambda, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmScore != -1 {
		t.Errorf("cold WarmScore = %v, want -1", cold.WarmScore)
	}
	if res.Nodes >= cold.Nodes {
		t.Errorf("warm start did not prune: %d warm nodes vs %d cold", res.Nodes, cold.Nodes)
	}
}

// TestBudgetExpiredReturnsWarmMatch: when the budget expires before the
// search reaches a leaf as good as the warm start, the result carries the
// signature match, not an empty mapping.
func TestBudgetExpiredReturnsWarmMatch(t *testing.T) {
	// Ex. 3.1: the signature match scores (12+4λ)/24, the root's optimistic
	// bound is higher, so a 1-node budget trips before the first leaf.
	l, r := example31()
	res, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: lambda, MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhaustive {
		t.Fatal("one-node budget cannot be exhaustive here")
	}
	if res.WarmScore < 0 {
		t.Fatal("warm start did not run")
	}
	if len(res.Pairs) == 0 {
		t.Error("budget-expired result lost the warm-start match")
	}
	if res.Score != res.WarmScore {
		t.Errorf("budget-expired score = %v, want the warm score %v", res.Score, res.WarmScore)
	}

	// Same budget without the warm start: the old empty-mapping behavior.
	cold, err := Run(context.Background(), l, r, match.OneToOne,
		Options{Lambda: lambda, MaxNodes: 1, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Pairs) != 0 {
		t.Errorf("cold 1-node search returned %d pairs, want 0", len(cold.Pairs))
	}
	if cold.Score >= res.Score {
		t.Errorf("warm budget-expired score %v should beat cold %v here", res.Score, cold.Score)
	}
}

// TestLeftInjectiveWarmStartOnlyOnStop: in the left-injective modes the
// walk starts cold and the signature match is only the fallback of a
// stopped search. An exhaustive run never starts the signature engine and
// scores exactly as a NoWarmStart run; a stopped run keeps a match at
// least as good as the fallback's; a canceled context returns at once,
// even on an instance whose search (the pinned Doct 30 case) does not
// certify within 20,000 nodes.
func TestLeftInjectiveWarmStartOnlyOnStop(t *testing.T) {
	l, r := example31()
	base, err := datasets.Generate(datasets.Doct, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	hard := generator.Make(base, generator.Noise{CellPct: 0.5, NullShare: 0.8, NullReuse: 0.3, RedundantPct: 0.2, Seed: 7})
	for _, mode := range []match.Mode{match.OneToOne, match.Functional} {
		res, err := Run(context.Background(), l, r, mode, Options{Lambda: lambda})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Run(context.Background(), l, r, mode, Options{Lambda: lambda, NoWarmStart: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exhaustive || res.WarmScore != -1 || res.SigStats != nil {
			t.Errorf("%v exhaustive run: Exhaustive %v, WarmScore %v, SigStats %v; want true, -1, nil",
				mode, res.Exhaustive, res.WarmScore, res.SigStats)
		}
		if math.Float64bits(res.Score) != math.Float64bits(cold.Score) {
			t.Errorf("%v: score %v, NoWarmStart score %v", mode, res.Score, cold.Score)
		}

		stopped, err := Run(context.Background(), l, r, mode, Options{Lambda: lambda, MaxNodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if stopped.Stopped != StoppedNodeBudget || len(stopped.Pairs) == 0 {
			t.Errorf("%v 1-node run: Stopped %q with %d pairs; want %q with the fallback's pairs",
				mode, stopped.Stopped, len(stopped.Pairs), StoppedNodeBudget)
		}
		if !(stopped.Score >= stopped.WarmScore && stopped.WarmScore >= 0) || stopped.SigStats == nil {
			t.Errorf("%v 1-node run: Score %v, WarmScore %v, SigStats %v; want Score >= WarmScore >= 0 with stats",
				mode, stopped.Score, stopped.WarmScore, stopped.SigStats)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		canceled, err := Run(ctx, hard.Source, hard.Target, mode, Options{Lambda: lambda, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("%v: pre-canceled run took %v", mode, elapsed)
		}
		if canceled.Stopped != StoppedCanceled {
			t.Errorf("%v: pre-canceled Stopped = %q, want %q", mode, canceled.Stopped, StoppedCanceled)
		}
	}
}

// TestParallelTimeout: searches running concurrently on separate
// goroutines each stop at their own deadline; they share no search state.
func TestParallelTimeout(t *testing.T) {
	rows := make([][]model.Value, 12)
	rows2 := make([][]model.Value, 12)
	for i := range rows {
		rows[i] = []model.Value{n(model.Nullf("L%d", i).Raw()), n(model.Nullf("LL%d", i).Raw())}
		rows2[i] = []model.Value{n(model.Nullf("R%d", i).Raw()), n(model.Nullf("RR%d", i).Raw())}
	}
	l, r := build(rows), build(rows2)
	const searches = 4
	results := make([]*Result, searches)
	errs := make([]error, searches)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(context.Background(), l, r, match.ManyToMany,
				Options{Lambda: lambda, Timeout: 50 * time.Millisecond, NoWarmStart: true})
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout ignored: %d concurrent searches ran %v", searches, elapsed)
	}
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res.Exhaustive {
			t.Logf("search %d finished within the timeout (machine is fast); no assertion", i)
		} else if res.Stopped != StoppedTimeout {
			t.Errorf("search %d: Stopped = %q, want %q", i, res.Stopped, StoppedTimeout)
		}
	}
}

// TestScoreIsReplayedMatchScore: the returned score is the bits of
// score.Match over the returned environment, for every mode, with and
// without the warm start, on exhaustive runs (most of the 5000-node ones)
// and on runs the node budget stopped before, at or after the first leaf.
// RunEnv reports the incumbent's score without rescoring the replayed
// match, so this holds only because the replay inserts the pairs in the
// order they were scored.
func TestScoreIsReplayedMatchScore(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	modes := []match.Mode{match.OneToOne, match.Functional, match.ManyToMany}
	var exhaustive, stopped int
	for trial := 0; trial < 60; trial++ {
		rows := 3 + trial%6
		l := randomInstance(rng, "L", rows, 3, 3, 0.4)
		r := randomInstance(rng, "R", rows+trial%2, 3, 3, 0.4)
		mode := modes[trial%len(modes)]
		for _, maxNodes := range []int64{1, 3, 8, 40, 5000} {
			for _, noWarm := range []bool{false, true} {
				res, err := Run(context.Background(), l, r, mode,
					Options{Lambda: lambda, MaxNodes: maxNodes, NoWarmStart: noWarm})
				if err != nil {
					t.Fatal(err)
				}
				if res.Exhaustive {
					exhaustive++
				} else {
					stopped++
				}
				if got := score.Match(res.Env, lambda); math.Float64bits(got) != math.Float64bits(res.Score) {
					t.Fatalf("trial %d mode %v max %d cold %v: Score %v (%#x), rescored %v (%#x)",
						trial, mode, maxNodes, noWarm, res.Score, math.Float64bits(res.Score), got, math.Float64bits(got))
				}
			}
		}
	}
	if exhaustive == 0 || stopped == 0 {
		t.Fatalf("%d exhaustive and %d stopped runs; the test needs both", exhaustive, stopped)
	}
}
