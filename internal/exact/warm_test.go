package exact

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"instcmp/internal/match"
	"instcmp/internal/model"
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

// TestWarmStartSeedsIncumbent: a warm-started search reports the signature
// score it started from, and on instances where the signature is optimal
// the search just certifies it.
func TestWarmStartSeedsIncumbent(t *testing.T) {
	l := build([][]model.Value{{c("a"), c("b")}, {c("x"), n("N1")}})
	r := build([][]model.Value{{c("a"), c("b")}, {c("x"), n("V1")}})
	res, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.WarmScore-1) > 1e-9 {
		t.Errorf("WarmScore = %v, want 1 (signature finds the isomorphism)", res.WarmScore)
	}
	if res.Score != 1 {
		t.Errorf("score = %v, want 1", res.Score)
	}
	cold, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: lambda, NoWarmStart: true})
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

// TestBudgetExpiredReturnsWarmMatch pins the satellite-2 fix: when the
// budget expires before the search improves on the warm start, the result
// carries the signature match, not an empty mapping.
func TestBudgetExpiredReturnsWarmMatch(t *testing.T) {
	// Ex. 3.1: the signature match scores (12+4λ)/24, the root's optimistic
	// bound is higher, so a 1-node budget trips before the first leaf.
	l := model.NewInstance()
	l.AddRelation("Conf", "Id", "Name", "Year", "Org")
	l.Append("Conf", n("N1"), c("VLDB"), c("1975"), c("VLDB End."))
	l.Append("Conf", n("N2"), c("VLDB"), n("N4"), c("VLDB End."))
	l.Append("Conf", n("N3"), c("SIGMOD"), c("1977"), c("ACM"))
	r := model.NewInstance()
	r.AddRelation("Conf", "Id", "Name", "Year", "Org")
	r.Append("Conf", n("Va"), c("VLDB"), c("1975"), c("VLDB End."))
	r.Append("Conf", n("Vb"), c("VLDB"), c("1976"), n("Vc"))
	r.Append("Conf", c("3"), c("ICDE"), c("1984"), c("IEEE"))
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
