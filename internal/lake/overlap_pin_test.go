package lake

import (
	"context"
	"fmt"
	"math"
	"testing"

	"instcmp"
	"instcmp/internal/model"
)

// refSampleConsts is the reference prefilter sample: up to max distinct
// constants of the instance, in first-seen scan order (relations in schema
// order, tuples in order, attributes in order).
func refSampleConsts(in *instcmp.Instance, max int) map[model.Value]bool {
	set := make(map[model.Value]bool)
	for _, rel := range in.Relations() {
		for _, t := range rel.Tuples {
			for _, v := range t.Values {
				if v.IsConst() && !set[v] {
					set[v] = true
					if len(set) >= max {
						return set
					}
				}
			}
		}
	}
	return set
}

// refJaccard is the reference overlap: the Jaccard index of two samples,
// 1 when both are empty.
func refJaccard(a, b map[model.Value]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for v := range a {
		if b[v] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// overlapPinInstances returns the instances the overlap pin ranks against
// each other: two of each generated lake shape (clone, near, mid, far,
// unrelated), the base table, a multi-relation instance, a null-heavy
// instance, and two instances without a single constant.
func overlapPinInstances(t *testing.T) []Candidate {
	t.Helper()
	example, gen := generatedLake(t, 10, 31)
	out := []Candidate{{Name: "base", Instance: example.Instance()}}
	for _, c := range gen {
		out = append(out, Candidate{Name: c.Name, Instance: c.Prepared.Instance()})
	}

	multi := instcmp.NewInstance()
	multi.AddRelation("Conf", "Name", "Year")
	multi.AddRelation("Loc", "Name", "City")
	multi.Append("Conf", instcmp.Const("VLDB"), instcmp.Null("y1"))
	multi.Append("Conf", instcmp.Const("EDBT"), instcmp.Const("2024"))
	multi.Append("Loc", instcmp.Const("VLDB"), instcmp.Const("Istanbul"))
	multi.Append("Loc", instcmp.Const("5.1"), instcmp.Const("EDBT"))
	out = append(out, Candidate{Name: "multi-relation", Instance: multi})

	nullHeavy := instcmp.NewInstance()
	first := example.Instance().Relations()[0]
	nullHeavy.AddRelation(first.Name, first.Attrs...)
	for i, tup := range first.Tuples {
		row := make([]instcmp.Value, len(tup.Values))
		for a, v := range tup.Values {
			if (i+a)%4 == 0 {
				row[a] = v
			} else {
				row[a] = instcmp.Null(fmt.Sprintf("h%d", (i*7+a)%11))
			}
		}
		nullHeavy.Append(first.Name, row...)
	}
	out = append(out, Candidate{Name: "null-heavy", Instance: nullHeavy})

	for _, name := range []string{"no-const-a", "no-const-b"} {
		in := instcmp.NewInstance()
		in.AddRelation("R", "A", "B")
		in.Append("R", instcmp.Null(name+"1"), instcmp.Null(name+"2"))
		in.Append("R", instcmp.Null(name+"2"), instcmp.Null(name+"3"))
		out = append(out, Candidate{Name: name, Instance: in})
	}
	return out
}

// TestOverlapMatchesReference pins the prefilter overlap every ranking
// reports to the reference sample-and-Jaccard, bit for bit, through both the
// one-shot and the prepared entry points. Every instance is ranked as the
// example against all others, so each pair is checked in both argument
// orders. MinValueOverlap 1 prunes all but identical samples, which keeps
// the full comparisons few.
func TestOverlapMatchesReference(t *testing.T) {
	insts := overlapPinInstances(t)
	prepared := make([]PreparedCandidate, len(insts))
	for i, c := range insts {
		p, err := instcmp.Prepare(c.Instance)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = PreparedCandidate{Name: c.Name, Prepared: p}
	}
	for _, maxSample := range []int{1, 2, 7, 1000} {
		for ei, ex := range insts {
			var lake []Candidate
			var plake []PreparedCandidate
			want := map[string]float64{}
			exSample := refSampleConsts(ex.Instance, maxSample)
			for ci, c := range insts {
				if ci == ei {
					continue
				}
				lake = append(lake, c)
				plake = append(plake, prepared[ci])
				want[c.Name] = refJaccard(exSample, refSampleConsts(c.Instance, maxSample))
			}
			opt := Options{MinValueOverlap: 1, MaxSample: maxSample}
			oneShot, err := Rank(context.Background(), ex.Instance, lake, opt)
			if err != nil {
				t.Fatalf("MaxSample %d, example %s: %v", maxSample, ex.Name, err)
			}
			resident, err := RankPreparedContext(context.Background(), prepared[ei].Prepared, plake, opt)
			if err != nil {
				t.Fatalf("MaxSample %d, example %s (prepared): %v", maxSample, ex.Name, err)
			}
			for path, res := range map[string][]Result{"Rank": oneShot, "RankPreparedContext": resident} {
				if len(res) != len(want) {
					t.Fatalf("%s: %d results, want %d", path, len(res), len(want))
				}
				for _, r := range res {
					if math.Float64bits(r.Overlap) != math.Float64bits(want[r.Name]) {
						t.Errorf("%s MaxSample %d: overlap(%s, %s) = %v, reference %v",
							path, maxSample, ex.Name, r.Name, r.Overlap, want[r.Name])
					}
				}
			}
		}
	}
}
