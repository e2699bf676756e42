package exchange

import (
	"context"
	"strings"
	"testing"

	"instcmp/internal/hom"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/signature"
)

func mkSource() *model.Instance {
	src := model.NewInstance()
	src.AddRelation("S", "A", "B")
	src.Append("S", model.Const("a1"), model.Const("b1"))
	src.Append("S", model.Const("a2"), model.Const("b2"))
	return src
}

func mkTarget() *model.Instance {
	tgt := model.NewInstance()
	tgt.AddRelation("T", "X", "Y", "Z")
	return tgt
}

func TestChaseCopiesWithExistentials(t *testing.T) {
	m := Mapping{{
		Body: []Atom{A("S", V("a"), V("b"))},
		Head: []Atom{A("T", V("a"), V("b"), V("z"))},
	}}
	out, err := Chase(mkSource(), mkTarget(), m)
	if err != nil {
		t.Fatal(err)
	}
	rel := out.Relation("T")
	if rel.Cardinality() != 2 {
		t.Fatalf("chase produced %d tuples, want 2", rel.Cardinality())
	}
	nulls := map[model.Value]bool{}
	for _, tu := range rel.Tuples {
		if !tu.Values[2].IsNull() {
			t.Errorf("existential position not a null: %v", tu)
		}
		nulls[tu.Values[2]] = true
	}
	if len(nulls) != 2 {
		t.Error("existential nulls must be fresh per binding")
	}
}

func TestChaseSharedExistentialAcrossHeadAtoms(t *testing.T) {
	tgt := model.NewInstance()
	tgt.AddRelation("T1", "I", "A")
	tgt.AddRelation("T2", "I", "B")
	m := Mapping{{
		Body: []Atom{A("S", V("a"), V("b"))},
		Head: []Atom{A("T1", V("i"), V("a")), A("T2", V("i"), V("b"))},
	}}
	out, err := Chase(mkSource(), tgt, m)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := out.Relation("T1"), out.Relation("T2")
	for i := range t1.Tuples {
		if t1.Tuples[i].Values[0] != t2.Tuples[i].Values[0] {
			t.Error("existential must be shared across head atoms of one binding")
		}
	}
}

func TestChaseJoinBody(t *testing.T) {
	src := model.NewInstance()
	src.AddRelation("R", "A", "B")
	src.AddRelation("Q", "B", "C")
	src.Append("R", model.Const("a"), model.Const("b"))
	src.Append("Q", model.Const("b"), model.Const("c"))
	src.Append("Q", model.Const("zzz"), model.Const("c2")) // join misses
	tgt := model.NewInstance()
	tgt.AddRelation("T", "X", "Y", "Z")
	m := Mapping{{
		Body: []Atom{A("R", V("a"), V("b")), A("Q", V("b"), V("c"))},
		Head: []Atom{A("T", V("a"), V("b"), V("c"))},
	}}
	out, err := Chase(src, tgt, m)
	if err != nil {
		t.Fatal(err)
	}
	rel := out.Relation("T")
	if rel.Cardinality() != 1 {
		t.Fatalf("join chase produced %d tuples, want 1", rel.Cardinality())
	}
	want := []model.Value{model.Const("a"), model.Const("b"), model.Const("c")}
	for i, v := range want {
		if rel.Tuples[0].Values[i] != v {
			t.Errorf("value %d = %v, want %v", i, rel.Tuples[0].Values[i], v)
		}
	}
}

func TestChaseConstantInBodyFilters(t *testing.T) {
	m := Mapping{{
		Body: []Atom{A("S", C("a1"), V("b"))},
		Head: []Atom{A("T", V("b"), V("b"), V("z"))},
	}}
	out, err := Chase(mkSource(), mkTarget(), m)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Relation("T").Cardinality(); got != 1 {
		t.Errorf("constant filter produced %d tuples, want 1", got)
	}
}

func TestChaseDedupesGroundHeads(t *testing.T) {
	src := mkSource()
	src.Append("S", model.Const("a1"), model.Const("b1")) // duplicate row
	m := Mapping{{
		Body: []Atom{A("S", V("a"), V("b"))},
		Head: []Atom{A("T", V("a"), V("b"), C("k"))},
	}}
	out, err := Chase(src, mkTarget(), m)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Relation("T").Cardinality(); got != 2 {
		t.Errorf("ground heads not deduped: %d tuples, want 2", got)
	}
}

func TestValidate(t *testing.T) {
	bad := Mapping{{
		Body: []Atom{A("Nope", V("a"))},
		Head: []Atom{A("T", V("a"), V("a"), V("a"))},
	}}
	if err := bad.Validate(mkSource(), mkTarget()); err == nil {
		t.Error("unknown body relation accepted")
	}
	badArity := Mapping{{
		Body: []Atom{A("S", V("a"))},
		Head: []Atom{A("T", V("a"), V("a"), V("a"))},
	}}
	if err := badArity.Validate(mkSource(), mkTarget()); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestChaseIsUniversal(t *testing.T) {
	// The chase result must have a homomorphism into any other solution;
	// in particular into its own core.
	ex := NewDoctorsExchange(60, 1)
	sol, err := Chase(ex.Source, ex.TargetSchema, ex.U1)
	if err != nil {
		t.Fatal(err)
	}
	core := hom.Core(sol)
	if !hom.Exists(sol, core) || !hom.Exists(core, sol) {
		t.Fatal("solution and its core must be homomorphically equivalent")
	}
	if core.NumTuples() >= sol.NumTuples() {
		t.Errorf("U1 core (%d) should be smaller than its chase (%d)",
			core.NumTuples(), sol.NumTuples())
	}
}

func TestDoctorsScenarioShape(t *testing.T) {
	ex := NewDoctorsExchange(80, 2)
	gold, err := CoreSolution(ex.Source, ex.TargetSchema, ex.Gold)
	if err != nil {
		t.Fatal(err)
	}
	// Gold core: one Doctor + one Practice tuple per source row.
	if got := gold.NumTuples(); got != 160 {
		t.Errorf("gold core tuples = %d, want 160", got)
	}

	u1, _ := Chase(ex.Source, ex.TargetSchema, ex.U1)
	u2, _ := Chase(ex.Source, ex.TargetSchema, ex.U2)
	w, _ := Chase(ex.Source, ex.TargetSchema, ex.Wrong)
	if !(u1.NumTuples() > u2.NumTuples() && u2.NumTuples() > gold.NumTuples()) {
		t.Errorf("redundancy ordering violated: U1=%d U2=%d gold=%d",
			u1.NumTuples(), u2.NumTuples(), gold.NumTuples())
	}

	// U1 and U2 are universal solutions: hom into the gold core exists.
	if !hom.Exists(u1, gold) || !hom.Exists(u2, gold) {
		t.Error("correct mappings must produce universal solutions")
	}
	if hom.Exists(w, gold) {
		t.Error("wrong mapping should not map into the gold core")
	}

	// Metrics shape of Table 6.
	if MissingRows(w, gold) != gold.NumTuples() {
		t.Errorf("wrong solution should miss every gold row, got %d/%d",
			MissingRows(w, gold), gold.NumTuples())
	}
	if MissingRows(u1, gold) != 0 || MissingRows(u2, gold) != 0 {
		t.Error("correct solutions should miss no gold rows")
	}
	if rs := RowScore(w, gold); rs < 0.9 {
		t.Errorf("wrong solution row score = %v, want ~1 (the metric's blind spot)", rs)
	}

	// Signature scores: wrong ≈ 0, correct high, U2 >= U1.
	// Both solutions and the gold are chased from the same source, so
	// their null namespaces collide; rename the gold apart (the public
	// Compare API does this automatically).
	goldR := gold.RenameNulls("g·")
	sigScore := func(sol *model.Instance) float64 {
		res, err := signature.Run(context.Background(), sol, goldR, match.Functional, signature.Options{Lambda: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return res.Score
	}
	sw, s1, s2 := sigScore(w), sigScore(u1), sigScore(u2)
	if sw > 0.05 {
		t.Errorf("wrong mapping sig score = %v, want ~0", sw)
	}
	if s1 < 0.7 || s2 < 0.7 {
		t.Errorf("correct mapping sig scores too low: U1=%v U2=%v", s1, s2)
	}
	if s2 < s1 {
		t.Errorf("U2 (%v) should score at least U1 (%v)", s2, s1)
	}
}

func TestRowScore(t *testing.T) {
	a := mkSource()
	b := mkSource()
	if RowScore(a, b) != 1 {
		t.Error("equal sizes should score 1")
	}
	b.Append("S", model.Const("x"), model.Const("y"))
	if got := RowScore(a, b); got <= 0.5 || got >= 1 {
		t.Errorf("row score = %v, want 2/3", got)
	}
	empty := model.NewInstance()
	empty.AddRelation("S", "A", "B")
	if RowScore(empty, a) != 0 {
		t.Error("empty vs non-empty should score 0")
	}
	if RowScore(empty, empty.Clone()) != 1 {
		t.Error("empty vs empty should score 1")
	}
}

func TestDescribe(t *testing.T) {
	ex := NewDoctorsExchange(5, 1)
	d := ex.Gold.Describe()
	if !strings.Contains(d, "MD(") || !strings.Contains(d, "→") {
		t.Errorf("Describe output unexpected: %s", d)
	}
}
