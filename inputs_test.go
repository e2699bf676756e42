package instcmp

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"instcmp/internal/generator"
)

// inputState renders an instance and its tuple identifiers, relation by
// relation, so a comparison that touched either shows up as a difference.
func inputState(in *Instance) string {
	s := in.String()
	for _, rel := range in.Relations() {
		s += fmt.Sprintf("%s ids:", rel.Name)
		for _, t := range rel.Tuples {
			s += fmt.Sprintf(" %d", t.ID)
		}
		s += "\n"
	}
	return s
}

// TestCompareLeavesInputsUntouched: one-shot compares read their inputs in
// place, without a defensive copy, on every path that fixes the pairing
// (renaming nulls apart, aligning schemas, discovering a mapping). Each path
// must leave both inputs as they were, and concurrent compares of one shared
// pair (run under -race) must only read it and agree bit for bit.
func TestCompareLeavesInputsUntouched(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Instance, *Instance)
		opt   Options
	}{
		{
			name: "equal-schemas",
			build: func() (*Instance, *Instance) {
				l := conf([]Value{Const("VLDB"), Const("1975"), Null("L1")}, []Value{Const("ICDE"), Null("L2"), Const("x")})
				r := conf([]Value{Const("VLDB"), Null("R1"), Const("y")}, []Value{Const("ICDE"), Const("1984"), Const("x")})
				return l, r
			},
			opt: Options{Mode: OneToOne},
		},
		{
			name: "overlapping-null-names",
			build: func() (*Instance, *Instance) {
				l := conf([]Value{Const("VLDB"), Null("N1"), Null("N1")}, []Value{Const("ICDE"), Null("N2"), Const("x")})
				r := conf([]Value{Const("VLDB"), Null("N1"), Const("k")}, []Value{Null("N2"), Const("1984"), Const("x")})
				return l, r
			},
			opt: Options{Mode: ManyToMany, Algorithm: AlgoSignature},
		},
		{
			name: "align-schemas",
			build: func() (*Instance, *Instance) {
				l, r := NewInstance(), NewInstance()
				l.AddRelation("R", "A", "B")
				r.AddRelation("R", "A", "B", "C")
				r.AddRelation("T", "D")
				l.Append("R", Const("x"), Null("l1"))
				l.Append("R", Const("y"), Const("b"))
				r.Append("R", Const("x"), Const("a"), Const("c"))
				r.Append("R", Const("y"), Null("r1"), Null("r2"))
				r.Append("T", Const("d"))
				return l, r
			},
			opt: Options{Algorithm: AlgoExact, Mode: ManyToMany, AlignSchemas: true},
		},
		{
			name: "discover-mapping",
			build: func() (*Instance, *Instance) {
				left, right := driftFixture()
				drifted, _ := generator.DriftTarget(right, generator.Drift{RenamePct: 1, Reorder: true, DropCols: 1, Seed: 11})
				return left, drifted
			},
			opt: Options{Algorithm: AlgoSignature, Lambda: 0.5, DiscoverMapping: true},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l, r := c.build()
			lBefore, rBefore := inputState(l), inputState(r)
			ref, err := Compare(l, r, &c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if c.opt.DiscoverMapping && ref.Mapping == nil {
				t.Fatal("mapping discovery did not run")
			}
			if inputState(l) != lBefore || inputState(r) != rBefore {
				t.Fatal("Compare changed its inputs")
			}
			const workers = 8
			scores := make([]float64, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					res, err := CompareContext(context.Background(), l, r, &c.opt)
					if err != nil {
						errs[w] = err
						return
					}
					scores[w] = res.Score
				}(w)
			}
			wg.Wait()
			for w := range scores {
				if errs[w] != nil {
					t.Fatalf("concurrent compare %d: %v", w, errs[w])
				}
				if math.Float64bits(scores[w]) != math.Float64bits(ref.Score) {
					t.Errorf("concurrent compare %d scored %.17g, alone %.17g", w, scores[w], ref.Score)
				}
			}
			if inputState(l) != lBefore || inputState(r) != rBefore {
				t.Error("concurrent compares changed their shared inputs")
			}
		})
	}
}
