package signature

// Ablation tests for the implementation's refinements over the paper's
// literal greedy: the sub-signature rescue round, the perfect-pairs-first
// round, and the net-gain guard. Each test constructs a scenario where the
// refinement matters and checks that disabling it reproduces the weaker
// behaviour — documenting *why* the refinement exists.

import (
	"context"
	"math/rand"
	"testing"

	"instcmp/internal/datasets"
	"instcmp/internal/generator"
	"instcmp/internal/match"
	"instcmp/internal/model"
)

// TestAblationRescueRound: pairs whose null positions differ on both sides
// are invisible to maximal signatures; without the rescue round they fall
// to the completion step.
func TestAblationRescueRound(t *testing.T) {
	l := model.NewInstance()
	l.AddRelation("R", "A", "B", "C")
	l.Append("R", model.Null("N1"), model.Const("x"), model.Const("y"))
	r := model.NewInstance()
	r.AddRelation("R", "A", "B", "C")
	r.Append("R", model.Const("k"), model.Const("x"), model.Null("V1"))

	with, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: 0.5, DisableRescue: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Score != without.Score {
		t.Errorf("final scores must agree: %v vs %v", with.Score, without.Score)
	}
	if with.Stats.SigMatches != 1 || with.Stats.CompatMatches != 0 {
		t.Errorf("rescue round should find the pair signature-side: %+v", with.Stats)
	}
	if without.Stats.SigMatches != 0 || without.Stats.CompatMatches != 1 {
		t.Errorf("without rescue the pair must come from completion: %+v", without.Stats)
	}
}

// TestAblationGainGuard: without the guard, the greedy happily adds a
// score-lowering cross pair and isomorphic instances drop below 1 in the
// n-to-m mode.
func TestAblationGainGuard(t *testing.T) {
	mk := func(prefix string) *model.Instance {
		in := model.NewInstance()
		in.AddRelation("R", "A", "B", "C")
		q1, q2 := model.Null(prefix+"q1"), model.Null(prefix+"q2")
		in.Append("R", q2, model.Const("c0"), model.Const("c2"))
		in.Append("R", model.Const("c3"), model.Const("c0"), q1)
		in.Append("R", q2, q2, model.Const("c1"))
		in.Append("R", model.Const("c2"), model.Const("c0"), model.Const("c0"))
		return in
	}
	l, r := mk(""), mk("r·")
	guarded, err := Run(context.Background(), l, r, match.ManyToMany, Options{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if guarded.Score != 1 {
		t.Errorf("guarded self-comparison = %v, want 1", guarded.Score)
	}
	raw, err := Run(context.Background(), l, r, match.ManyToMany, Options{Lambda: 0.5, NoGainGuard: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Score >= guarded.Score {
		t.Errorf("literal greedy should lose score here: %v vs %v", raw.Score, guarded.Score)
	}
}

// TestAblationTwoRound: on noisy workloads, matching perfect pairs first
// never hurts the final score.
func TestAblationTwoRound(t *testing.T) {
	base := datasets.Doctors(200, rand.New(rand.NewSource(5)))
	for seed := int64(0); seed < 5; seed++ {
		sc := generator.Make(base, generator.Noise{CellPct: 0.1, Seed: seed})
		two, err := Run(context.Background(), sc.Source, sc.Target, match.OneToOne, Options{Lambda: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		one, err := Run(context.Background(), sc.Source, sc.Target, match.OneToOne, Options{Lambda: 0.5, SingleRound: true})
		if err != nil {
			t.Fatal(err)
		}
		if two.Score < one.Score-1e-9 {
			t.Errorf("seed %d: two-round %v below single-round %v", seed, two.Score, one.Score)
		}
	}
}
