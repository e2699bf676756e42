package exact

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/signature"
)

// Multi-relation exact search: cross-relation null constraints must be
// honored by the search's global unifier, and the signature algorithm must
// stay a lower bound.

func mkExchange(key1, key2 model.Value, place model.Value) *model.Instance {
	in := model.NewInstance()
	in.AddRelation("Conf", "Id", "Name", "Place")
	in.AddRelation("Paper", "Title", "ConfId")
	in.Append("Conf", key1, c("VLDB"), place)
	in.Append("Conf", key2, c("SIGMOD"), c("SJ"))
	in.Append("Paper", c("QBE"), key1)
	in.Append("Paper", c("ER"), key2)
	return in
}

func TestExactCrossRelationSurrogates(t *testing.T) {
	l := mkExchange(n("N1"), n("N2"), n("N3"))
	r := mkExchange(c("1"), c("2"), c("Rome"))
	res, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhaustive {
		t.Fatal("budget hit on tiny instance")
	}
	if len(res.Pairs) != 4 {
		t.Fatalf("pairs = %d, want all 4 tuples matched", len(res.Pairs))
	}
	// N1 must map to 1 (the join with Paper forces it), N2 to 2.
	if got := res.Env.U.Representative(n("N1")); got != c("1") {
		t.Errorf("N1 -> %v, want 1", got)
	}
	if got := res.Env.U.Representative(n("N2")); got != c("2") {
		t.Errorf("N2 -> %v, want 2", got)
	}
	// Pair scores: Conf(N1,VLDB,N3) -> λ+1+λ = 2; Conf(N2,SIGMOD,SJ) ->
	// λ+1+1 = 2.5; each Paper pair -> 1+λ = 1.5. Tuple scores double the
	// pair scores (both endpoints), normalized by size 10+10.
	want := 2 * (2 + 2.5 + 1.5 + 1.5) / 20.0
	if math.Abs(res.Score-want) > 1e-9 {
		t.Errorf("score = %v, want %v", res.Score, want)
	}
}

func TestExactCrossRelationConflict(t *testing.T) {
	l := mkExchange(n("N1"), n("N2"), c("Rome"))
	// Break the join on the right: Paper references different ids.
	r := model.NewInstance()
	r.AddRelation("Conf", "Id", "Name", "Place")
	r.AddRelation("Paper", "Title", "ConfId")
	r.Append("Conf", c("1"), c("VLDB"), c("Rome"))
	r.Append("Conf", c("2"), c("SIGMOD"), c("SJ"))
	r.Append("Paper", c("QBE"), c("9"))
	r.Append("Paper", c("ER"), c("8"))
	res, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// N1 can serve the Conf pair or the Paper pair, not both; same for
	// N2. The optimum matches all four tuples anyway? No: matching
	// Conf(N1..)->Conf(1..) binds N1=1, then Paper(QBE,N1) needs a
	// Paper with ConfId 1 — absent. The optimum picks, per null, the
	// more valuable side (Conf pairs have arity 3 > 2).
	if len(res.Pairs) != 2 {
		t.Fatalf("pairs = %d, want 2 (one per null)", len(res.Pairs))
	}
	for _, p := range res.Pairs {
		if res.Env.LRels[p.L.Rel].Name != "Conf" {
			t.Errorf("optimum should prefer the wider Conf pairs, got %s", res.Env.LRels[p.L.Rel].Name)
		}
	}
}

func TestSignatureLowerBoundsExactMultiRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		mk := func(side string) *model.Instance {
			in := model.NewInstance()
			in.AddRelation("A", "X", "Y")
			in.AddRelation("B", "Z")
			key := model.Nullf("%s%d", side, trial)
			for i := 0; i < 2+rng.Intn(2); i++ {
				v := model.Constf("c%d", rng.Intn(3))
				if rng.Intn(3) == 0 {
					in.Append("A", key, v)
				} else {
					in.Append("A", model.Constf("k%d", rng.Intn(3)), v)
				}
			}
			in.Append("B", key)
			return in
		}
		l, r := mk("L"), mk("R")
		ex, err := Run(context.Background(), l, r, match.ManyToMany, Options{Lambda: 0.5, MaxNodes: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Exhaustive {
			continue
		}
		sig, err := signature.Run(context.Background(), l, r, match.ManyToMany, signature.Options{Lambda: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if sig.Score > ex.Score+1e-9 {
			t.Fatalf("trial %d: signature %v above exact %v\n%s\n%s", trial, sig.Score, ex.Score, l, r)
		}
	}
}
