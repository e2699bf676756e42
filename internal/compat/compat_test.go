package compat

import (
	"math/rand"
	"testing"

	"instcmp/internal/model"
)

func c(s string) model.Value { return model.Const(s) }
func n(s string) model.Value { return model.Null(s) }

func tup(vals ...model.Value) *model.Tuple {
	return &model.Tuple{Values: vals}
}

func TestCCompatible(t *testing.T) {
	cases := []struct {
		name string
		a, b *model.Tuple
		want bool
	}{
		{"equal consts", tup(c("a"), c("b")), tup(c("a"), c("b")), true},
		{"conflicting consts", tup(c("a"), c("b")), tup(c("a"), c("x")), false},
		{"null absorbs", tup(c("a"), n("N")), tup(c("a"), c("x")), true},
		{"both null", tup(n("M"), n("N")), tup(n("P"), n("Q")), true},
	}
	for _, tc := range cases {
		if got := CCompatible(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: CCompatible = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCompatiblePaperExample reproduces the Sec. 6.1 example: ⟨a1,b1,c1⟩ and
// ⟨a1,N1,N1⟩ are c-compatible but not compatible (N1 cannot be both b1 and c1).
func TestCompatiblePaperExample(t *testing.T) {
	a := tup(c("a1"), c("b1"), c("c1"))
	b := tup(c("a1"), n("N1"), n("N1"))
	if !CCompatible(a, b) {
		t.Error("pair should be c-compatible")
	}
	if Compatible(a, b) {
		t.Error("pair should not be compatible: N1 would equal b1 and c1")
	}
}

func TestCompatibleTransitiveThroughNulls(t *testing.T) {
	// N unifies with M (via col 1) and M with x (via col 2): consistent.
	a := tup(n("N"), n("N"))
	b := tup(n("M"), c("x"))
	if !Compatible(a, b) {
		t.Error("transitive unification should succeed")
	}
	// N must equal x (col 1) and y (col 2) transitively: inconsistent.
	a2 := tup(n("N"), n("N"))
	b2 := tup(c("x"), c("y"))
	if Compatible(a2, b2) {
		t.Error("transitive constant conflict missed")
	}
}

func TestCompatibleRepeatedNullAcrossSides(t *testing.T) {
	// Left repeats N; right has two distinct constants in those positions.
	a := tup(n("N"), n("N"), c("k"))
	b := tup(c("u"), c("u"), c("k"))
	if !Compatible(a, b) {
		t.Error("N -> u consistently should be compatible")
	}
	// Right repeats V where left has conflicting constants.
	a2 := tup(c("p"), c("q"), c("k"))
	b2 := tup(n("V"), n("V"), c("k"))
	if Compatible(a2, b2) {
		t.Error("V cannot equal both p and q")
	}
}

func TestCompatibleSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := []model.Value{c("a"), c("b"), c("x"), n("N1"), n("N2"), n("V1")}
	for trial := 0; trial < 500; trial++ {
		arity := 1 + rng.Intn(4)
		a := &model.Tuple{Values: make([]model.Value, arity)}
		b := &model.Tuple{Values: make([]model.Value, arity)}
		for i := 0; i < arity; i++ {
			a.Values[i] = vals[rng.Intn(3)] // left draws consts and N's
			if rng.Intn(2) == 0 {
				a.Values[i] = vals[3+rng.Intn(2)]
			}
			b.Values[i] = vals[rng.Intn(len(vals))]
		}
		if Compatible(a, b) != Compatible(b, a) {
			t.Fatalf("Compatible not symmetric for %v / %v", a, b)
		}
		if Compatible(a, b) && !CCompatible(a, b) {
			t.Fatalf("compatible pair not c-compatible: %v / %v", a, b)
		}
	}
}

func buildRel(rows ...[]model.Value) *model.Relation {
	r := &model.Relation{Name: "R"}
	if len(rows) > 0 {
		for i := range rows[0] {
			r.Attrs = append(r.Attrs, string(rune('A'+i)))
		}
	}
	for i, row := range rows {
		r.Tuples = append(r.Tuples, model.Tuple{ID: model.TupleID(i), Values: row})
	}
	return r
}

// codedCandidates computes the compatibility map of Alg. 2 for one
// relation pair through CodedIndex: for every listed left position, the
// compatible right positions. Nil position lists mean all tuples of that
// side. Both sides are coded with one interner before the index is built.
func codedCandidates(lrel, rrel *model.Relation, leftIdxs, rightIdxs []int) map[int][]int {
	in := model.NewInterner(0)
	lc, rc := in.Code(lrel), in.Code(rrel)
	pr := NewCodedIndex(rc, rightIdxs, in).NewProber()
	if leftIdxs == nil {
		for li := range lrel.Tuples {
			leftIdxs = append(leftIdxs, li)
		}
	}
	out := make(map[int][]int, len(leftIdxs))
	for _, li := range leftIdxs {
		out[li] = append([]int(nil), pr.Candidates(lc.Row(li), lc.Masks[li])...)
	}
	return out
}

func TestIndexCandidates(t *testing.T) {
	right := buildRel(
		[]model.Value{c("a"), c("b")},
		[]model.Value{c("a"), n("V1")},
		[]model.Value{c("z"), c("b")},
		[]model.Value{n("V2"), n("V3")},
	)
	probes := buildRel(
		[]model.Value{c("a"), c("b")},
		[]model.Value{n("N1"), n("N2")},
		[]model.Value{c("q"), c("b")},
	)
	cands := codedCandidates(probes, right, nil, nil)

	got := cands[0]
	want := map[int]bool{0: true, 1: true, 3: true}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want keys %v", got, want)
	}
	for _, i := range got {
		if !want[i] {
			t.Errorf("unexpected candidate %d", i)
		}
	}

	// All-null probe matches everything.
	if got := cands[1]; len(got) != 4 {
		t.Errorf("all-null probe candidates = %v, want all 4", got)
	}

	// Probe with a constant unseen on the right matches only null slots.
	got = cands[2]
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("unseen-constant probe = %v, want [3]", got)
	}
}

func TestCandidatesSubsets(t *testing.T) {
	left := buildRel(
		[]model.Value{c("a"), c("b")},
		[]model.Value{c("z"), c("z")},
	)
	right := buildRel(
		[]model.Value{c("a"), c("b")},
		[]model.Value{c("a"), n("V1")},
	)
	all := codedCandidates(left, right, nil, nil)
	if len(all) != 2 {
		t.Fatalf("expected entries for both left tuples, got %v", all)
	}
	if len(all[0]) != 2 {
		t.Errorf("left 0 candidates = %v, want 2", all[0])
	}
	if len(all[1]) != 0 {
		t.Errorf("left 1 candidates = %v, want none", all[1])
	}

	restricted := codedCandidates(left, right, []int{0}, []int{1})
	if len(restricted) != 1 || len(restricted[0]) != 1 || restricted[0][0] != 1 {
		t.Errorf("restricted candidates = %v", restricted)
	}
}

// TestCandidatesAgainstBruteForce cross-checks the indexed candidate
// computation against the quadratic definition on random relations.
func TestCandidatesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(rows, arity, doms int, side string) *model.Relation {
		r := &model.Relation{Name: "R"}
		for i := 0; i < arity; i++ {
			r.Attrs = append(r.Attrs, string(rune('A'+i)))
		}
		for i := 0; i < rows; i++ {
			vals := make([]model.Value, arity)
			for j := range vals {
				if rng.Intn(4) == 0 {
					vals[j] = model.Nullf("%s%d_%d", side, i, j)
				} else {
					vals[j] = model.Constf("c%d", rng.Intn(doms))
				}
			}
			r.Tuples = append(r.Tuples, model.Tuple{ID: model.TupleID(i), Values: vals})
		}
		return r
	}
	for trial := 0; trial < 20; trial++ {
		left := mk(15, 3, 4, "L")
		right := mk(15, 3, 4, "R")
		got := codedCandidates(left, right, nil, nil)
		for li := range left.Tuples {
			want := map[int]bool{}
			for ri := range right.Tuples {
				if Compatible(&left.Tuples[li], &right.Tuples[ri]) {
					want[ri] = true
				}
			}
			if len(got[li]) != len(want) {
				t.Fatalf("trial %d left %d: got %v, want %v", trial, li, got[li], want)
			}
			for _, ri := range got[li] {
				if !want[ri] {
					t.Fatalf("trial %d left %d: spurious candidate %d", trial, li, ri)
				}
			}
		}
	}
}
