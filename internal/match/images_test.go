package match

import (
	"fmt"
	"slices"
	"testing"

	"instcmp/internal/model"
)

// nullFixture returns an n-to-m environment over three all-null left and
// three all-null right rows: every pair is compatible, so any tuple's
// degree can grow to 3.
func nullFixture(t *testing.T) *Env {
	t.Helper()
	l, r := model.NewInstance(), model.NewInstance()
	l.AddRelation("R", "A", "B")
	r.AddRelation("R", "A", "B")
	for i := 0; i < 3; i++ {
		l.Append("R", model.Nullf("N%d", i), model.Nullf("M%d", i))
		r.Append("R", model.Nullf("V%d", i), model.Nullf("W%d", i))
	}
	env, err := NewEnv(l, r, ManyToMany)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// ref addresses tuple i of the fixture's one relation, on either side.
func ref(i int) Ref { return Ref{Idx: i} }

// images renders every left and right image of the environment.
func images(e *Env) string {
	var s string
	for i := 0; i < e.NumLeftTuples(); i++ {
		s += fmt.Sprint(e.LeftImage(ref(i)))
	}
	s += " /"
	for i := 0; i < e.NumRightTuples(); i++ {
		s += fmt.Sprint(e.RightImage(ref(i)))
	}
	return s
}

// TestImagesGrowAndUndo grows one tuple's image from 1 to 3 pairs (past
// its first, preallocated slot) next to a neighbour holding one pair, then
// undoes in two steps: the neighbour's image never changes, and each undo
// restores the images exactly.
func TestImagesGrowAndUndo(t *testing.T) {
	e := nullFixture(t)
	add := func(l, r int) {
		t.Helper()
		if !e.TryAddPair(Pair{L: ref(l), R: ref(r)}) {
			t.Fatalf("pair (%d, %d) refused", l, r)
		}
	}
	add(1, 0)
	neighbour := []Ref{ref(0)}
	m0 := e.Mark()
	add(0, 0)
	m1 := e.Mark()
	add(0, 1)
	add(0, 2)
	if got, want := e.LeftImage(ref(0)), []Ref{ref(0), ref(1), ref(2)}; !slices.Equal(got, want) {
		t.Fatalf("left 0 image = %v, want %v", got, want)
	}
	if got := e.LeftImage(ref(1)); !slices.Equal(got, neighbour) {
		t.Fatalf("neighbour image = %v after growth, want %v", got, neighbour)
	}
	if got, want := e.RightImage(ref(0)), []Ref{ref(1), ref(0)}; !slices.Equal(got, want) {
		t.Fatalf("right 0 image = %v, want %v", got, want)
	}
	e.Undo(m1)
	if got, want := images(e), "[{0 0}][{0 0}][] /[{0 1} {0 0}][][]"; got != want {
		t.Errorf("after undo to degree 1: images %s, want %s", got, want)
	}
	e.Undo(m0)
	if got, want := images(e), "[][{0 0}][] /[{0 1}][][]"; got != want {
		t.Errorf("after undo to degree 0: images %s, want %s", got, want)
	}
	add(0, 2)
	if got, want := images(e), "[{0 2}][{0 0}][] /[{0 1}][][{0 0}]"; got != want {
		t.Errorf("after re-adding: images %s, want %s", got, want)
	}
}
