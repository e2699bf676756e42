package exact

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"instcmp/internal/compat"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/score"
)

func c(s string) model.Value { return model.Const(s) }
func n(s string) model.Value { return model.Null(s) }

const lambda = 0.5

// bruteForce enumerates every subset of compatible pairs, filters the ones
// that form a consistent complete match under the mode, and returns the
// maximum score. Exponential; for tiny instances only. Compatible pairs
// come from all tuple pairs filtered by Def. 6.1's Value-based checks, so
// the oracle shares no code with the candidate index.
func bruteForce(t *testing.T, l, r *model.Instance, mode match.Mode) float64 {
	t.Helper()
	env, err := match.NewEnv(l, r, mode)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []match.Pair
	for ri, lrel := range l.Relations() {
		rrel := r.Relations()[ri]
		for li := range lrel.Tuples {
			for ci := range rrel.Tuples {
				lt, rt := &lrel.Tuples[li], &rrel.Tuples[ci]
				if compat.CCompatible(lt, rt) && compat.Compatible(lt, rt) {
					pairs = append(pairs, match.Pair{
						L: match.Ref{Rel: ri, Idx: li},
						R: match.Ref{Rel: ri, Idx: ci},
					})
				}
			}
		}
	}
	if len(pairs) > 18 {
		t.Fatalf("bruteForce: %d pairs is too many", len(pairs))
	}
	best := -1.0
	for mask := 0; mask < 1<<len(pairs); mask++ {
		mk := env.Mark()
		ok := true
		for i, p := range pairs {
			if mask&(1<<i) == 0 {
				continue
			}
			if !env.TryAddPair(p) {
				ok = false
				break
			}
		}
		if ok {
			if s := score.Match(env, lambda); s > best {
				best = s
			}
		}
		env.Undo(mk)
	}
	if best < 0 {
		best = score.Match(env, lambda) // empty mapping
	}
	return best
}

func build(rows [][]model.Value) *model.Instance {
	in := model.NewInstance()
	attrs := []string{"A", "B", "C"}
	if len(rows) > 0 {
		attrs = attrs[:len(rows[0])]
	}
	in.AddRelation("R", attrs...)
	for _, row := range rows {
		in.Append("R", row...)
	}
	return in
}

func run(t *testing.T, l, r *model.Instance, mode match.Mode) *Result {
	t.Helper()
	res, err := Run(context.Background(), l, r, mode, Options{Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhaustive {
		t.Fatal("search unexpectedly hit its budget")
	}
	return res
}

func TestIdenticalGroundInstances(t *testing.T) {
	l := build([][]model.Value{{c("a"), c("b")}, {c("x"), c("y")}})
	r := build([][]model.Value{{c("a"), c("b")}, {c("x"), c("y")}})
	if got := run(t, l, r, match.OneToOne).Score; math.Abs(got-1) > 1e-9 {
		t.Errorf("identical instances score %v, want 1", got)
	}
}

func TestIsomorphicInstancesScoreOne(t *testing.T) {
	l := build([][]model.Value{{n("N1"), c("b")}, {n("N2"), n("N3")}})
	r := build([][]model.Value{{n("V1"), c("b")}, {n("V2"), n("V3")}})
	if got := run(t, l, r, match.OneToOne).Score; math.Abs(got-1) > 1e-9 {
		t.Errorf("isomorphic instances score %v, want 1 (Eq. 2)", got)
	}
}

func TestNonIsomorphicBelowOne(t *testing.T) {
	// Sec. 3's example: I = {(N1),(N2)} vs I'' = {(N5),(N5)}.
	l := build([][]model.Value{{n("N1")}, {n("N2")}})
	r := build([][]model.Value{{n("N5")}, {n("N5")}})
	got := run(t, l, r, match.OneToOne).Score
	if got >= 1 {
		t.Errorf("non-isomorphic instances score %v, want < 1 (Eq. 3)", got)
	}
	if got <= 0 {
		t.Errorf("similar instances score %v, want > 0", got)
	}
}

func TestDisjointGroundZero(t *testing.T) {
	l := build([][]model.Value{{c("a"), c("b")}})
	r := build([][]model.Value{{c("x"), c("y")}})
	if got := run(t, l, r, match.OneToOne).Score; got != 0 {
		t.Errorf("disjoint ground instances score %v, want 0 (Eq. 4)", got)
	}
}

// example31 builds the two instances of Ex. 3.1/Fig. 6.
func example31() (*model.Instance, *model.Instance) {
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
	return l, r
}

// TestExample31 reproduces Ex. 3.1/Fig. 6: the optimal match maps t1->t4 and
// t2->t5 with score (12+4λ)/24, in particular it must not settle for the
// inferior N4->1975 alternative.
func TestExample31(t *testing.T) {
	l, r := example31()
	res := run(t, l, r, match.OneToOne)
	want := (12 + 4*lambda) / 24
	if math.Abs(res.Score-want) > 1e-9 {
		t.Errorf("Ex 3.1 score = %v, want %v", res.Score, want)
	}
	if len(res.Pairs) != 2 {
		t.Errorf("Ex 3.1 match size = %d, want 2", len(res.Pairs))
	}
}

func TestMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	modes := []match.Mode{match.OneToOne, match.Functional, match.ManyToMany}
	for trial := 0; trial < 30; trial++ {
		mk := func(side string) *model.Instance {
			rows := make([][]model.Value, 3)
			for i := range rows {
				rows[i] = make([]model.Value, 2)
				for j := range rows[i] {
					if rng.Intn(3) == 0 {
						rows[i][j] = model.Nullf("%s%d_%d_%d", side, trial, i, j)
					} else {
						rows[i][j] = model.Constf("c%d", rng.Intn(3))
					}
				}
			}
			return build(rows)
		}
		l, r := mk("L"), mk("R")
		mode := modes[trial%len(modes)]
		want := bruteForce(t, l, r, mode)
		got := run(t, l, r, mode).Score
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d mode %v: exact %v != brute force %v\nleft:\n%sright:\n%s",
				trial, mode, got, want, l, r)
		}
	}
}

func TestGeneralModeCanBeatInjective(t *testing.T) {
	// One left tuple explains two identical right tuples only in n-to-m.
	l := build([][]model.Value{{c("a"), c("b")}})
	r := build([][]model.Value{{c("a"), c("b")}, {c("a"), c("b")}})
	inj := run(t, l, r, match.OneToOne).Score
	gen := run(t, l, r, match.ManyToMany).Score
	if gen <= inj {
		t.Errorf("n-to-m score %v should exceed 1-to-1 score %v here", gen, inj)
	}
	if math.Abs(gen-1) > 1e-9 {
		t.Errorf("duplicate-explained score = %v, want 1", gen)
	}
}

func TestBudgetStopsSearch(t *testing.T) {
	rows := make([][]model.Value, 8)
	for i := range rows {
		rows[i] = []model.Value{n(model.Nullf("L%d", i).Raw()), c("k")}
	}
	l := build(rows)
	rows2 := make([][]model.Value, 8)
	for i := range rows2 {
		rows2[i] = []model.Value{n(model.Nullf("R%d", i).Raw()), c("k")}
	}
	r := build(rows2)
	// Pin the legacy single-threaded cold-start engine: the warm start
	// solves this degenerate instance at node 1 (every pair is perfect),
	// and the parallel node budget is only batch-accurate.
	res, err := Run(context.Background(), l, r, match.ManyToMany,
		Options{Lambda: lambda, MaxNodes: 50, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhaustive {
		t.Error("64-pair general search cannot finish in 50 nodes")
	}
	if res.Nodes > 52 {
		t.Errorf("budget overshot: %d nodes", res.Nodes)
	}
	if res.Score < 0 || res.Score > 1 {
		t.Errorf("budgeted score out of range: %v", res.Score)
	}
}

func TestTimeoutStopsSearch(t *testing.T) {
	rows := make([][]model.Value, 10)
	rows2 := make([][]model.Value, 10)
	for i := range rows {
		rows[i] = []model.Value{n(model.Nullf("L%d", i).Raw()), n(model.Nullf("LL%d", i).Raw())}
		rows2[i] = []model.Value{n(model.Nullf("R%d", i).Raw()), n(model.Nullf("RR%d", i).Raw())}
	}
	start := time.Now()
	res, err := Run(context.Background(), build(rows), build(rows2), match.ManyToMany,
		Options{Lambda: lambda, Timeout: 50 * time.Millisecond, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout ignored: ran %v", elapsed)
	}
	if res.Exhaustive {
		t.Log("note: search finished within the timeout (machine is fast); no assertion")
	}
}

func TestResultEnvHoldsBestMatch(t *testing.T) {
	l := build([][]model.Value{{c("a"), n("N1")}})
	r := build([][]model.Value{{c("a"), c("v")}})
	res := run(t, l, r, match.OneToOne)
	if res.Env.NumPairs() != 1 {
		t.Fatalf("env pairs = %d, want 1", res.Env.NumPairs())
	}
	if !res.Env.IsComplete() {
		t.Error("result env match is not complete")
	}
	if got := score.Match(res.Env, lambda); math.Abs(got-res.Score) > 1e-9 {
		t.Errorf("env score %v != result score %v", got, res.Score)
	}
}
