package model

import (
	"fmt"
	"sync"
	"testing"
)

// frozenBase returns a root interner holding sorted nulls then constants,
// the shape a prepared side's self-interner has.
func frozenBase() *Interner {
	in := NewInterner()
	for i := 0; i < 4; i++ {
		in.Intern(Nullf("n%d", i))
	}
	for i := 0; i < 20; i++ {
		in.Intern(Constf("c%d", i))
	}
	return in
}

// extSequence mixes values the base already holds with new constants and
// nulls, repeats included.
func extSequence() []Value {
	var seq []Value
	for i := 0; i < 30; i++ {
		seq = append(seq, Constf("c%d", i*3%37), Nullf("m%d", i%7))
	}
	return seq
}

func TestInternerExtendLeavesBaseUnchanged(t *testing.T) {
	base := frozenBase()
	n := base.Len()
	ext := base.Extend(8)
	for _, v := range extSequence() {
		ext.Intern(v)
	}
	if ext.Len() <= n {
		t.Fatalf("extension interned nothing new: Len %d", ext.Len())
	}
	if base.Len() != n {
		t.Errorf("base Len %d after extension interned, want %d", base.Len(), n)
	}
	for _, v := range extSequence() {
		id, ok := base.Lookup(v)
		ref := frozenBase()
		wantID, wantOK := ref.Lookup(v)
		if ok != wantOK || (ok && id != wantID) {
			t.Errorf("base Lookup(%v) = (%d, %v), want (%d, %v)", v, id, ok, wantID, wantOK)
		}
	}
}

// TestInternerExtendMatchesContinuedInterning pins the joint ID space: an
// extension assigns exactly the IDs a copy of the base would have assigned
// by interning the same sequence after it (what copying the whole base
// used to give).
func TestInternerExtendMatchesContinuedInterning(t *testing.T) {
	for _, hint := range []int{0, 3, 100} {
		ext := frozenBase().Extend(hint)
		ref := frozenBase()
		for _, v := range extSequence() {
			if got, want := ext.Intern(v), ref.Intern(v); got != want {
				t.Fatalf("hint %d: Intern(%v) = %d, continued interning gives %d", hint, v, got, want)
			}
		}
		if ext.Len() != ref.Len() {
			t.Fatalf("hint %d: Len %d, want %d", hint, ext.Len(), ref.Len())
		}
		for id := ValueID(0); int(id) < ref.Len(); id++ {
			if ext.ValueOf(id) != ref.ValueOf(id) || ext.IsNull(id) != ref.IsNull(id) || ext.NullFlags()[id] != ref.NullFlags()[id] {
				t.Errorf("hint %d: ID %d decodes to %v (null %v), want %v (null %v)",
					hint, id, ext.ValueOf(id), ext.IsNull(id), ref.ValueOf(id), ref.IsNull(id))
			}
			if got, ok := ext.Lookup(ref.ValueOf(id)); !ok || got != id {
				t.Errorf("hint %d: Lookup(%v) = (%d, %v), want (%d, true)", hint, ref.ValueOf(id), got, ok, id)
			}
		}
	}
}

// TestInternerExtendConcurrent extends one frozen base from several
// goroutines at once (run under -race): every extension must assign the
// same IDs, and none may write to the shared base.
func TestInternerExtendConcurrent(t *testing.T) {
	base := frozenBase()
	seq := extSequence()
	const workers = 4
	ids := make([][]ValueID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				ext := base.Extend(len(seq))
				got := make([]ValueID, len(seq))
				for i, v := range seq {
					got[i] = ext.Intern(v)
				}
				ids[w] = got
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if fmt.Sprint(ids[w]) != fmt.Sprint(ids[0]) {
			t.Errorf("extension %d assigned %v, extension 0 %v", w, ids[w], ids[0])
		}
	}
}

// TestInternerExtendDecodesBothLevels decodes IDs on both sides of the
// boundary between the root's values and an extension's own, and checks
// that two extensions interning different values at the same IDs leave
// each other and the root untouched.
func TestInternerExtendDecodesBothLevels(t *testing.T) {
	base := frozenBase()
	n := ValueID(base.Len())
	a, b := base.Extend(1), base.Extend(0)
	if id := a.Intern(Const("a-only")); id != n {
		t.Fatalf("first new ID %d, want %d", id, n)
	}
	if id := b.Intern(Null("b-only")); id != n {
		t.Fatalf("first new ID %d, want %d", id, n)
	}
	ref := frozenBase()
	if got, want := a.ValueOf(n-1), ref.ValueOf(n-1); got != want {
		t.Errorf("last root ID decodes to %v, want %v", got, want)
	}
	if got := a.ValueOf(n); got != Const("a-only") || a.IsNull(n) {
		t.Errorf("extension a decodes ID %d to %v (null %v)", n, got, a.IsNull(n))
	}
	if got := b.ValueOf(n); got != Null("b-only") || !b.IsNull(n) {
		t.Errorf("extension b decodes ID %d to %v (null %v)", n, got, b.IsNull(n))
	}
	if base.Len() != int(n) {
		t.Fatalf("root Len %d after extensions interned, want %d", base.Len(), n)
	}
	for id := ValueID(0); id < n; id++ {
		if base.ValueOf(id) != ref.ValueOf(id) || base.IsNull(id) != ref.IsNull(id) {
			t.Errorf("root ID %d decodes to %v, want %v", id, base.ValueOf(id), ref.ValueOf(id))
		}
	}
}

// TestInternerExtendRejectsExtension: an extension does not own its base
// map, so extending it again would drop the root's values and hand out
// wrong IDs; Extend must refuse.
func TestInternerExtendRejectsExtension(t *testing.T) {
	ext := frozenBase().Extend(0)
	defer func() {
		if recover() == nil {
			t.Error("Extend on an extended interner did not panic")
		}
	}()
	ext.Extend(0)
}
