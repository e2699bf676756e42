package signature

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"instcmp/internal/match"
	"instcmp/internal/model"
)

func c(s string) model.Value { return model.Const(s) }
func n(s string) model.Value { return model.Null(s) }

const lambda = 0.5

func build(rows [][]model.Value) *model.Instance {
	in := model.NewInstance()
	attrs := []string{"A", "B", "C", "D"}
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
	return res
}

func TestIdenticalInstances(t *testing.T) {
	l := build([][]model.Value{{c("a"), c("b")}, {c("x"), n("N1")}})
	r := build([][]model.Value{{c("a"), c("b")}, {c("x"), n("V1")}})
	if got := run(t, l, r, match.OneToOne).Score; math.Abs(got-1) > 1e-9 {
		t.Errorf("isomorphic score = %v, want 1", got)
	}
}

// TestFig6Scenario: the signature algorithm must find the Sec. 6.2 match,
// including the (t2,t5) pair that has no maximal-signature match because
// the null positions differ — the rescue round's sub-signature probing
// (Property 2) finds it within the signature phase.
func TestFig6Scenario(t *testing.T) {
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

	res := run(t, l, r, match.OneToOne)
	want := (12 + 4*lambda) / 24
	if math.Abs(res.Score-want) > 1e-9 {
		t.Errorf("Fig 6 score = %v, want %v", res.Score, want)
	}
	if res.Stats.SigMatches != 2 || res.Stats.CompatMatches != 0 {
		t.Errorf("phase split = %d sig + %d compat, want 2 + 0",
			res.Stats.SigMatches, res.Stats.CompatMatches)
	}
}

func TestScoreInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		mk := func(side string) *model.Instance {
			nrows := 1 + rng.Intn(6)
			rows := make([][]model.Value, nrows)
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
		res := run(t, mk("L"), mk("R"), match.ManyToMany)
		if res.Score < 0 || res.Score > 1+1e-9 {
			t.Fatalf("score out of range: %v", res.Score)
		}
		if !res.Env.IsComplete() {
			t.Fatal("signature produced an incomplete match")
		}
	}
}

func TestInjectiveModesRespectDegrees(t *testing.T) {
	l := build([][]model.Value{{c("a"), c("b")}, {c("a"), c("b")}})
	r := build([][]model.Value{{c("a"), c("b")}, {c("a"), c("b")}})
	res := run(t, l, r, match.OneToOne)
	if got := res.Env.NumPairs(); got != 2 {
		t.Errorf("1-to-1 pairs = %d, want 2", got)
	}
	for _, p := range res.Env.Pairs() {
		if res.Env.LeftDegree(p.L) != 1 || res.Env.RightDegree(p.R) != 1 {
			t.Error("injectivity violated")
		}
	}
	gen := run(t, l, r, match.ManyToMany)
	if got := gen.Env.NumPairs(); got != 4 {
		t.Errorf("n-to-m pairs = %d, want 4 (all duplicates cross-matched)", got)
	}
}

func TestStatsPhaseSplit(t *testing.T) {
	// All matches here are signature-based: identical ground tuples.
	l := build([][]model.Value{{c("a"), c("b")}, {c("x"), c("y")}})
	r := build([][]model.Value{{c("a"), c("b")}, {c("x"), c("y")}})
	res := run(t, l, r, match.OneToOne)
	if res.Stats.SigMatches != 2 || res.Stats.CompatMatches != 0 {
		t.Errorf("phase split = %+v, want all signature-based", res.Stats)
	}
	if math.Abs(res.Stats.ScoreAfterSig-1) > 1e-9 {
		t.Errorf("ScoreAfterSig = %v, want 1", res.Stats.ScoreAfterSig)
	}
}

func TestSchemaMismatchError(t *testing.T) {
	l := build([][]model.Value{{c("a"), c("b")}})
	r := model.NewInstance()
	r.AddRelation("S", "A", "B")
	if _, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: lambda}); err == nil {
		t.Error("expected schema mismatch error")
	}
}

// TestPartialMatching: with Partial enabled, tuples sharing a signature but
// conflicting on one constant can still be matched (Sec. 6.3, Property 2).
func TestPartialMatching(t *testing.T) {
	l := build([][]model.Value{{c("alice"), c("sales"), c("100")}})
	r := build([][]model.Value{{c("alice"), c("sales"), c("200")}})

	full := run(t, l, r, match.OneToOne)
	if full.Score != 0 {
		t.Fatalf("complete-match score = %v, want 0 (conflicting constants)", full.Score)
	}

	part, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: lambda, Partial: true, MinPartialSig: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := (2.0 + 2.0) / 6 // two agreeing cells per side, one conflict
	if math.Abs(part.Score-want) > 1e-9 {
		t.Errorf("partial score = %v, want %v", part.Score, want)
	}

	// A floor of 3 shared constants rejects the pair again.
	strict, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: lambda, Partial: true, MinPartialSig: 3})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Score != 0 {
		t.Errorf("strict partial score = %v, want 0", strict.Score)
	}
}

func TestPartialStillAcceptsCompatiblePairs(t *testing.T) {
	l := build([][]model.Value{{n("N1"), c("b")}})
	r := build([][]model.Value{{c("a"), c("b")}})
	res, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: lambda, Partial: true, MinPartialSig: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Fully compatible pairs bypass the shared-constant floor.
	want := (1 + lambda + 1 + lambda) / 4
	if math.Abs(res.Score-want) > 1e-9 {
		t.Errorf("compatible-pair partial score = %v, want %v", res.Score, want)
	}
}

func TestEmptyInstances(t *testing.T) {
	l := build(nil)
	r := build(nil)
	if got := run(t, l, r, match.OneToOne).Score; got != 1 {
		t.Errorf("empty instances score = %v, want 1", got)
	}
}

func TestAllNullTuples(t *testing.T) {
	l := build([][]model.Value{{n("N1"), n("N2")}})
	r := build([][]model.Value{{n("V1"), n("V2")}})
	if got := run(t, l, r, match.OneToOne).Score; math.Abs(got-1) > 1e-9 {
		t.Errorf("all-null isomorphic score = %v, want 1", got)
	}
}

// TestRescueTriesPairsAtTheirIntersection checks that the rescue round
// tries a pair only at its own mask, the intersection of its ground masks.
// The left row (a, b, N1) agrees with the right row (a, x, N3) on A, a
// sub-mask of their own mask AB, but conflicts on B; it agrees with
// (a, N2, c) on its own mask A. The maximal-signature passes miss both
// pairs, so the rescue enumerates AB and A. At A the conflicting pair
// hashes equal, yet the rescue must not try it: it tries exactly one pair,
// and accepts it. With Partial and MinPartialSig 1 the passes accept the
// conflicting pair (the rows share one constant), and the rescue has no
// unmatched left row.
func TestRescueTriesPairsAtTheirIntersection(t *testing.T) {
	l := build([][]model.Value{{c("a"), c("b"), n("N1")}})
	r := build([][]model.Value{
		{c("a"), c("x"), n("N3")},
		{c("a"), n("N2"), c("c")},
	})
	conflict, rescued := match.Pair{R: match.Ref{Idx: 0}}, match.Pair{R: match.Ref{Idx: 1}}
	for _, tc := range []struct {
		label    string
		opt      Options
		mode     match.Mode
		attempts int64
		want     []match.Pair
	}{
		{"1to1", Options{}, match.OneToOne, 1, []match.Pair{rescued}},
		{"ntom", Options{}, match.ManyToMany, 1, []match.Pair{rescued}},
		{"partial-2-1to1", Options{Partial: true, MinPartialSig: 2}, match.OneToOne, 1, []match.Pair{rescued}},
		{"partial-2-ntom", Options{Partial: true, MinPartialSig: 2}, match.ManyToMany, 1, []match.Pair{rescued}},
		{"partial-1-1to1", Options{Partial: true, MinPartialSig: 1}, match.OneToOne, 0, []match.Pair{conflict}},
		{"partial-1-ntom", Options{Partial: true, MinPartialSig: 1}, match.ManyToMany, 0, []match.Pair{conflict, rescued}},
	} {
		t.Run(tc.label, func(t *testing.T) {
			tc.opt.Lambda = lambda
			// Drive the general round's passes and the rescue by hand,
			// so the counters taken around rescue count its attempts alone.
			env, err := match.NewEnv(l, r, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			s := &runner{env: env, ctx: context.Background(), opt: tc.opt, workers: 1,
				sumL: make([]float64, env.NumLeftTuples()), sumR: make([]float64, env.NumRightTuples())}
			s.pass(0, true)
			s.pass(0, false)
			before := env.Stats
			s.rescue(0)
			attempts, rejects := env.Stats.PairAttempts-before.PairAttempts, env.Stats.PairRejects-before.PairRejects
			if attempts != tc.attempts || rejects != 0 {
				t.Errorf("rescue made %d attempts with %d rejects, want %d attempts and none rejected", attempts, rejects, tc.attempts)
			}
			res, err := Run(context.Background(), l, r, tc.mode, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Env.Pairs(); !slices.Equal(got, tc.want) {
				t.Errorf("match %v, want %v", got, tc.want)
			}
		})
	}
}
