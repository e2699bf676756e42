// External test package: the exact engine imports signature for its warm
// start, so tests that compare the greedy against the exact optimum must
// live outside the signature package to avoid an import cycle.
package signature_test

import (
	"context"
	"math/rand"
	"testing"

	"instcmp/internal/exact"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/signature"
)

func TestAgreesWithExactOnRandomSmallInstances(t *testing.T) {
	const lambda = 0.5
	build := func(rows [][]model.Value) *model.Instance {
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
	rng := rand.New(rand.NewSource(7))
	modes := []match.Mode{match.OneToOne, match.Functional, match.ManyToMany}
	var worst float64
	for trial := 0; trial < 60; trial++ {
		mk := func(side string) *model.Instance {
			rows := make([][]model.Value, 4)
			for i := range rows {
				rows[i] = make([]model.Value, 3)
				for j := range rows[i] {
					if rng.Intn(4) == 0 {
						rows[i][j] = model.Nullf("%s%d_%d_%d", side, trial, i, j)
					} else {
						rows[i][j] = model.Constf("c%d", rng.Intn(4))
					}
				}
			}
			return build(rows)
		}
		l, r := mk("L"), mk("R")
		mode := modes[trial%len(modes)]
		ex, err := exact.Run(context.Background(), l, r, mode, exact.Options{Lambda: lambda, MaxNodes: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Exhaustive {
			continue
		}
		sig, err := signature.Run(context.Background(), l, r, mode, signature.Options{Lambda: lambda})
		if err != nil {
			t.Fatal(err)
		}
		if sig.Score > ex.Score+1e-9 {
			t.Fatalf("trial %d: signature %v exceeds exact optimum %v", trial, sig.Score, ex.Score)
		}
		if d := ex.Score - sig.Score; d > worst {
			worst = d
		}
	}
	// The paper reports <1% score difference; on these tiny instances the
	// greedy may lose a bit more, but must stay close.
	if worst > 0.15 {
		t.Errorf("worst exact-signature gap = %v, want <= 0.15", worst)
	}
}
