package match

import (
	"testing"

	"instcmp/internal/model"
)

func replayFixture(t *testing.T) *Env {
	t.Helper()
	l := model.NewInstance()
	l.AddRelation("R", "A", "B")
	l.Append("R", model.Null("N1"), model.Const("b"))
	l.Append("R", model.Null("N2"), model.Const("c"))
	l.Append("R", model.Const("x"), model.Null("N3"))
	r := model.NewInstance()
	r.AddRelation("R", "A", "B")
	r.Append("R", model.Null("V1"), model.Const("b"))
	r.Append("R", model.Null("V2"), model.Const("c"))
	r.Append("R", model.Const("x"), model.Null("V3"))
	env, err := NewEnv(l, r, ManyToMany)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestReplayAllOrNothing(t *testing.T) {
	env := replayFixture(t)
	good := []Pair{{L: Ref{Idx: 0}, R: Ref{Idx: 0}}, {L: Ref{Idx: 1}, R: Ref{Idx: 1}}}
	if !env.Replay(good) {
		t.Fatal("consistent replay refused")
	}
	if env.NumPairs() != 2 {
		t.Fatalf("replay applied %d pairs, want 2", env.NumPairs())
	}
	env.Undo(Mark{})

	// A replay containing an inconsistent pair must roll back entirely:
	// matching t0 (N1,b) with r1 (V2,c) conflicts on the constant cell.
	bad := []Pair{{L: Ref{Idx: 1}, R: Ref{Idx: 1}}, {L: Ref{Idx: 0}, R: Ref{Idx: 1}}}
	if env.Replay(bad) {
		t.Fatal("inconsistent replay accepted")
	}
	if env.NumPairs() != 0 {
		t.Errorf("failed replay left %d pairs behind", env.NumPairs())
	}
}
