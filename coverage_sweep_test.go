package instcmp_test

// Small sweep over public surface left uncovered by the behavioral tests:
// rendering helpers and totality validation.

import (
	"strings"
	"testing"

	"instcmp"
	"instcmp/internal/cleaning"
	"instcmp/internal/match"
	"instcmp/internal/unify"
	"instcmp/internal/versioning"
)

func TestCheckTotalityPositive(t *testing.T) {
	l := instcmp.NewInstance()
	l.AddRelation("R", "A")
	l.Append("R", instcmp.Const("x"))
	r := l.Clone()
	mode := match.Mode{RequireLeftTotal: true, RequireRightTotal: true}
	e, err := match.NewEnv(l, r, mode)
	if err != nil {
		t.Fatal(err)
	}
	if !e.TryAddPair(match.Pair{L: match.Ref{Rel: 0, Idx: 0}, R: match.Ref{Rel: 0, Idx: 0}}) {
		t.Fatal("pair refused")
	}
	if err := e.CheckTotality(); err != nil {
		t.Errorf("total mapping failed totality check: %v", err)
	}
}

func TestStringersAndMisc(t *testing.T) {
	if unify.Left.String() != "left" || unify.Right.String() != "right" {
		t.Error("Side.String wrong")
	}
	u := unify.New()
	if u.Registered(instcmp.Null("nope")) {
		t.Error("unregistered null reported registered")
	}
	fd := cleaning.FD{Relation: "R", Lhs: "A", Rhs: "B"}
	if got := fd.String(); !strings.Contains(got, "A -> B") {
		t.Errorf("FD.String = %q", got)
	}
	// versioning's unknown-variant error carries the variant name.
	_, err := versioning.MakeVariant(instcmp.NewInstance(), versioning.Variant("zz"), 0, 1)
	if err == nil || !strings.Contains(err.Error(), "zz") {
		t.Errorf("variant error = %v", err)
	}
}
