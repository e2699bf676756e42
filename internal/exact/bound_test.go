package exact

// Tests pinning the soundness of the branch-and-bound's pruning: an
// exhaustive exact run must dominate every known complete match, across
// workloads and modes. A bound bug (pruning the optimum away) shows up here
// as exact < reference.

import (
	"context"
	"math/rand"
	"testing"

	"instcmp/internal/datasets"
	"instcmp/internal/generator"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/signature"
)

func TestExactDominatesReferences(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		base := datasets.Doctors(60, rand.New(rand.NewSource(seed)))
		for _, tc := range []struct {
			mode  match.Mode
			noise generator.Noise
		}{
			{match.OneToOne, generator.Noise{CellPct: 0.05, NullReuse: 0.3, Seed: seed}},
			{match.OneToOne, generator.Noise{CellPct: 0.30, Seed: seed}},
			{match.Functional, generator.Noise{CellPct: 0.10, Seed: seed}},
		} {
			sc := generator.Make(base, tc.noise)
			ex, err := Run(context.Background(), sc.Source, sc.Target, tc.mode, Options{Lambda: 0.5, MaxNodes: 30_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if !ex.Exhaustive {
				continue // no optimality claim without exhaustion
			}
			ref, err := sc.BestKnownScore(0.5, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Score < ref-1e-9 {
				t.Errorf("seed %d mode %v: exhaustive exact %v below constructed match %v (bound pruned the optimum)",
					seed, tc.mode, ex.Score, ref)
			}
			sig, err := signature.Run(context.Background(), sc.Source, sc.Target, tc.mode, signature.Options{Lambda: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			if ex.Score < sig.Score-1e-9 {
				t.Errorf("seed %d mode %v: exhaustive exact %v below signature %v",
					seed, tc.mode, ex.Score, sig.Score)
			}
		}
	}
}

func TestOptScoreBounds(t *testing.T) {
	c := model.Const
	n := model.Null
	cases := []struct {
		l, r []model.Value
		want float64
	}{
		{[]model.Value{c("a"), c("b")}, []model.Value{c("a"), c("b")}, 2},
		{[]model.Value{c("a"), n("N")}, []model.Value{c("a"), c("b")}, 1.5},
		{[]model.Value{n("N"), n("M")}, []model.Value{n("V"), c("b")}, 1.5},
		{[]model.Value{n("N")}, []model.Value{n("V")}, 1},
	}
	in := model.NewInterner(0)
	code := func(vals []model.Value) (row []model.ValueID, mask uint64) {
		for a, v := range vals {
			row = append(row, in.Intern(v))
			if v.IsConst() {
				mask |= 1 << a
			}
		}
		return row, mask
	}
	for _, tc := range cases {
		lrow, lmask := code(tc.l)
		rrow, rmask := code(tc.r)
		if got := optScore(lrow, rrow, lmask, rmask, 0.5); got != tc.want {
			t.Errorf("optScore(%v, %v) = %v, want %v", tc.l, tc.r, got, tc.want)
		}
	}
}
