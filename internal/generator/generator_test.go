package generator

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"instcmp/internal/datasets"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/score"
	"instcmp/internal/signature"
)

const lambda = 0.5

func base(rows int) *model.Instance {
	return datasets.Doctors(rows, rand.New(rand.NewSource(3)))
}

func TestNoNoiseGivesIsomorphicPair(t *testing.T) {
	s := Make(base(50), Noise{Seed: 1})
	gold, err := s.GoldScore(lambda)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gold-1) > 1e-9 {
		t.Errorf("gold score without noise = %v, want 1", gold)
	}
	if got := len(s.GoldPairs); got != 50 {
		t.Errorf("gold pairs = %d, want 50", got)
	}
}

func TestModCellLowersScore(t *testing.T) {
	s := ModCell(base(100), 0.05, 7)
	gold, err := s.GoldScore(lambda)
	if err != nil {
		t.Fatal(err)
	}
	if gold >= 1 || gold < 0.5 {
		t.Errorf("gold score at 5%% noise = %v, want in [0.5, 1)", gold)
	}
	// Source and target must differ from the base and contain noise.
	srcStats := s.Source.Stats()
	if srcStats.NullCells == 0 {
		t.Error("modCell injected no nulls")
	}
}

func TestScenarioDeterministic(t *testing.T) {
	a := Make(base(60), Noise{CellPct: 0.1, Seed: 5})
	b := Make(base(60), Noise{CellPct: 0.1, Seed: 5})
	if a.Source.String() != b.Source.String() || a.Target.String() != b.Target.String() {
		t.Error("same seed produced different scenarios")
	}
}

func TestDisjointNamespaces(t *testing.T) {
	s := Make(base(40), Noise{CellPct: 0.2, Seed: 9})
	for v := range s.Source.Vars() {
		if s.Target.Vars()[v] {
			t.Fatalf("null %v shared between source and target", v)
		}
	}
	ids := map[model.TupleID]bool{}
	for _, rel := range s.Source.Relations() {
		for _, tu := range rel.Tuples {
			ids[tu.ID] = true
		}
	}
	for _, rel := range s.Target.Relations() {
		for _, tu := range rel.Tuples {
			if ids[tu.ID] {
				t.Fatalf("tuple id %d shared between source and target", tu.ID)
			}
		}
	}
}

func TestAddRandomAndRedundant(t *testing.T) {
	s := AddRandomAndRedundant(base(100), 0.05, 0.10, 0.10, 11)
	// Each side gains ~10% random and ~10% duplicates.
	if got := s.Source.NumTuples(); got < 115 || got > 125 {
		t.Errorf("source rows = %d, want ~120", got)
	}
	// Duplicates make the mapping n-to-m: more pairs than base rows.
	if len(s.GoldPairs) <= 100 {
		t.Errorf("gold pairs = %d, want > 100 (duplicates add pairs)", len(s.GoldPairs))
	}
	gold, err := s.GoldScore(lambda)
	if err != nil {
		t.Fatal(err)
	}
	if gold <= 0 || gold >= 1 {
		t.Errorf("gold score = %v, want in (0, 1)", gold)
	}
}

func TestNullReuseProducesRepeatedNulls(t *testing.T) {
	in := model.NewInstance()
	in.AddRelation("R", "A")
	for i := 0; i < 200; i++ {
		in.Append("R", model.Const("same")) // all cells share the original value
	}
	s := Make(in, Noise{CellPct: 0.5, NullShare: 1.0, NullReuse: 1.0, Seed: 2})
	counts := map[model.Value]int{}
	for _, tu := range s.Source.Relation("R").Tuples {
		if v := tu.Values[0]; v.IsNull() {
			counts[v]++
		}
	}
	reused := false
	for _, c := range counts {
		if c > 1 {
			reused = true
		}
	}
	if !reused {
		t.Error("NullReuse=1 never reused a null")
	}
}

// TestGoldScoreMatchesSignatureOnCleanScenario: when nothing was modified,
// the signature algorithm must rediscover the full gold mapping.
func TestGoldScoreMatchesSignatureOnCleanScenario(t *testing.T) {
	s := Make(base(80), Noise{Seed: 4})
	res, err := signature.Run(context.Background(), s.Source, s.Target, match.OneToOne, signature.Options{Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Score-1) > 1e-9 {
		t.Errorf("signature score on clean scenario = %v, want 1", res.Score)
	}
}

// TestSignatureCloseToGold reproduces the paper's central claim in miniature:
// on a modCell scenario the signature score is within 1% of the
// by-construction score (Table 2's Diff column).
func TestSignatureCloseToGold(t *testing.T) {
	s := ModCell(base(300), 0.05, 13)
	gold, err := s.GoldScore(lambda)
	if err != nil {
		t.Fatal(err)
	}
	res, err := signature.Run(context.Background(), s.Source, s.Target, match.OneToOne, signature.Options{Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(gold - res.Score); diff > 0.01 {
		t.Errorf("signature %.4f vs gold %.4f: diff %.4f > 0.01", res.Score, gold, diff)
	}
}

func TestGoldEnvConsistent(t *testing.T) {
	s := AddRandomAndRedundant(base(150), 0.10, 0.10, 0.10, 17)
	env, err := s.GoldEnv()
	if err != nil {
		t.Fatal(err)
	}
	if !env.IsComplete() {
		t.Error("gold env is not a complete match")
	}
	if sc := score.Match(env, lambda); sc < 0 || sc > 1 {
		t.Errorf("gold score out of range: %v", sc)
	}
}

// TestBestKnownScoreDominatesGold: the greedy-extended reference is never
// below the raw gold score, and stays a valid lower bound (≤ 1).
func TestBestKnownScoreDominatesGold(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		s := AddRandomAndRedundant(base(120), 0.08, 0.10, 0.10, seed)
		gold, err := s.GoldScore(lambda)
		if err != nil {
			t.Fatal(err)
		}
		best, err := s.BestKnownScore(lambda, match.ManyToMany)
		if err != nil {
			t.Fatal(err)
		}
		if best < gold-1e-9 {
			t.Errorf("seed %d: best-known %v below gold %v", seed, best, gold)
		}
		if best > 1+1e-9 {
			t.Errorf("seed %d: best-known %v above 1", seed, best)
		}
	}
}

// TestBestKnownScoreCleanScenario: without noise the gold is already the
// optimum; the extension must not change it.
func TestBestKnownScoreCleanScenario(t *testing.T) {
	s := Make(base(60), Noise{Seed: 3})
	best, err := s.BestKnownScore(lambda, match.OneToOne)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best-1) > 1e-9 {
		t.Errorf("best-known on clean scenario = %v, want 1", best)
	}
}

func TestBaseNotModified(t *testing.T) {
	b := base(30)
	before := b.String()
	Make(b, Noise{CellPct: 0.5, RandomPct: 0.5, RedundantPct: 0.5, Seed: 1})
	if b.String() != before {
		t.Error("Make modified the base instance")
	}
}
