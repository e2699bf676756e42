package model

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// frozenBase returns a root interner holding sorted nulls then constants,
// the shape a prepared side's self-interner has.
func frozenBase() *Interner {
	in := NewInterner(0)
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

// extend returns a fresh extension of base: an interner rebased onto it.
func extend(base *Interner, hint int) *Interner {
	ext := new(Interner)
	ext.Rebase(base, hint)
	return ext
}

func TestInternerExtendLeavesBaseUnchanged(t *testing.T) {
	base := frozenBase()
	n := base.Len()
	ext := extend(base, 8)
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
		ext := extend(frozenBase(), hint)
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
				ext := extend(base, len(seq))
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
	a, b := extend(base, 1), extend(base, 0)
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

// TestInternerRebaseReusesUsedInterner rebases an interner that already
// extended another base and interned values of its own: it must assign the
// IDs a fresh extension assigns, and keep nothing of its earlier base.
func TestInternerRebaseReusesUsedInterner(t *testing.T) {
	other := NewInterner(0)
	for i := 0; i < 50; i++ {
		other.Intern(Constf("other%d", i))
	}
	used := extend(other, 4)
	for i := 0; i < 40; i++ {
		used.Intern(Nullf("own%d", i))
	}
	used.Rebase(frozenBase(), 3)
	ref := extend(frozenBase(), 3)
	if used.Len() != ref.Len() {
		t.Fatalf("rebased Len %d, fresh extension %d", used.Len(), ref.Len())
	}
	for _, v := range append(extSequence(), Constf("other%d", 7), Nullf("own%d", 3)) {
		if got, want := used.Intern(v), ref.Intern(v); got != want {
			t.Fatalf("rebased Intern(%v) = %d, fresh extension %d", v, got, want)
		}
	}
	for id := ValueID(0); int(id) < ref.Len(); id++ {
		if used.ValueOf(id) != ref.ValueOf(id) || used.IsNull(id) != ref.IsNull(id) {
			t.Errorf("ID %d decodes to %v, fresh extension %v", id, used.ValueOf(id), ref.ValueOf(id))
		}
	}
	used.Rebase(nil, 0)
	if used.Len() != 0 {
		t.Errorf("Rebase(nil, 0) left %d values", used.Len())
	}
}

// TestInternerExtendRejectsExtension: an extension does not own its base
// map, so extending it again would drop the root's values and hand out
// wrong IDs; Rebase must refuse.
func TestInternerExtendRejectsExtension(t *testing.T) {
	ext := extend(frozenBase(), 0)
	defer func() {
		if recover() == nil {
			t.Error("Rebase onto an extended interner did not panic")
		}
	}()
	new(Interner).Rebase(ext, 0)
}

// mapInterner is the map-backed interner the flat table replaced, kept as
// the reference its IDs are pinned against.
type mapInterner struct {
	ids  map[Value]ValueID
	vals []Value
}

func newMapInterner() *mapInterner { return &mapInterner{ids: map[Value]ValueID{}} }

func (m *mapInterner) intern(v Value) ValueID {
	if id, ok := m.ids[v]; ok {
		return id
	}
	id := ValueID(len(m.vals))
	m.ids[v] = id
	m.vals = append(m.vals, v)
	return id
}

func (m *mapInterner) internAll(seq []Value) *mapInterner {
	for _, v := range seq {
		m.intern(v)
	}
	return m
}

func (m *mapInterner) clone() *mapInterner { return newMapInterner().internAll(m.vals) }

// randomValues returns n values over a domain of about n/3 texts, so values
// repeat; a quarter are nulls, and the sequence holds a constant and a null
// of the same text, and the empty text as both.
func randomValues(rng *rand.Rand, n int) []Value {
	seq := []Value{Const("x"), Null("x"), Const(""), Null("")}
	for len(seq) < n {
		s := strconv.Itoa(rng.Intn(n / 3))
		if rng.Intn(4) == 0 {
			seq = append(seq, Null(s))
		} else {
			seq = append(seq, Const(s))
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// missValues are absent from every randomValues sequence: other texts, and
// texts the sequences hold only as constants, as nulls.
func missValues() []Value {
	var miss []Value
	for i := 0; i < 200; i++ {
		miss = append(miss, Constf("miss-%d", i), Nullf("miss-%d", i), Nullf("x%d", i))
	}
	return miss
}

// checkAgainstMap checks every ID of in, its decoding and lookups, hits and
// misses, against the reference.
func checkAgainstMap(t *testing.T, label string, in *Interner, ref *mapInterner) {
	t.Helper()
	if in.Len() != len(ref.vals) {
		t.Fatalf("%s: Len %d, reference %d", label, in.Len(), len(ref.vals))
	}
	for id, v := range ref.vals {
		if got := in.ValueOf(ValueID(id)); got != v {
			t.Fatalf("%s: ValueOf(%d) = %#v, reference %#v", label, id, got, v)
		}
		if in.IsNull(ValueID(id)) != v.IsNull() {
			t.Fatalf("%s: IsNull(%d) = %v for %#v", label, id, in.IsNull(ValueID(id)), v)
		}
		if got, ok := in.Lookup(v); !ok || got != ValueID(id) {
			t.Fatalf("%s: Lookup(%#v) = (%d, %v), reference %d", label, v, got, ok, id)
		}
	}
	for _, v := range missValues() {
		_, want := ref.ids[v]
		if _, ok := in.Lookup(v); ok != want {
			t.Fatalf("%s: Lookup(%#v) hit %v, reference %v", label, v, ok, want)
		}
	}
}

// TestInternerMatchesMapReference pins the flat table against the map
// interner: over random sequences that grow the table through several
// doublings, at no hint, an exact one and an oversized one, every ID,
// decoding and lookup agrees.
func TestInternerMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 3; round++ {
		seq := randomValues(rng, 12000+round*5000)
		distinct := len(newMapInterner().internAll(seq).vals)
		for _, hint := range []int{0, distinct, 4 * len(seq)} {
			label := fmt.Sprintf("round %d hint %d", round, hint)
			in, ref := NewInterner(hint), newMapInterner()
			for i, v := range seq {
				if got, want := in.Intern(v), ref.intern(v); got != want {
					t.Fatalf("%s: value %d Intern(%#v) = %d, reference %d", label, i, v, got, want)
				}
			}
			checkAgainstMap(t, label, in, ref)
		}
	}
}

// TestInternerFromMatchesIntern: moving values between interners by stored
// hash (InternFrom, LookupFrom) gives exactly what re-hashing them does, on
// a root and on its extensions, with sources that are roots or extensions.
func TestInternerFromMatchesIntern(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, hint := range []int{0, 500, 50000} {
		label := fmt.Sprintf("hint %d", hint)
		baseSeq, srcSeq := randomValues(rng, 10000), randomValues(rng, 10000)
		base := NewInterner(hint)
		for _, v := range baseSeq {
			base.Intern(v)
		}
		baseRef := newMapInterner().internAll(baseSeq)
		src := NewInterner(0)
		for _, v := range srcSeq {
			src.Intern(v)
		}
		byValue, byHash := extend(base, hint), extend(base, hint)
		for id := ValueID(0); int(id) < src.Len(); id++ {
			got, gotOK := byHash.LookupFrom(src, id)
			want, wantOK := byValue.Lookup(src.ValueOf(id))
			if got != want || gotOK != wantOK {
				t.Fatalf("%s: fresh extension LookupFrom(src, %d) = (%d, %v), Lookup gives (%d, %v)", label, id, got, gotOK, want, wantOK)
			}
			got, gotOK = base.LookupFrom(src, id)
			want, wantOK = base.Lookup(src.ValueOf(id))
			if got != want || gotOK != wantOK {
				t.Fatalf("%s: root LookupFrom(src, %d) = (%d, %v), Lookup gives (%d, %v)", label, id, got, gotOK, want, wantOK)
			}
		}
		ref := baseRef.clone()
		for id := ValueID(0); int(id) < src.Len(); id++ {
			want := ref.intern(src.ValueOf(id))
			if got := byValue.Intern(src.ValueOf(id)); got != want {
				t.Fatalf("%s: extension Intern(%#v) = %d, reference %d", label, src.ValueOf(id), got, want)
			}
			if got := byHash.InternFrom(src, id); got != want {
				t.Fatalf("%s: extension InternFrom(src, %d) = %d, reference %d", label, id, got, want)
			}
		}
		checkAgainstMap(t, label+" by value", byValue, ref)
		checkAgainstMap(t, label+" by hash", byHash, ref)
		checkAgainstMap(t, label+" root", base, baseRef)
		// An extension as the source: its IDs span the root's values and
		// its own, all distinct, so a fresh interner assigns them the same
		// IDs in the same order.
		fresh := NewInterner(0)
		for id := ValueID(0); int(id) < byHash.Len(); id++ {
			if got, ok := byValue.LookupFrom(byHash, id); !ok || got != id {
				t.Fatalf("%s: LookupFrom(extension, %d) = (%d, %v)", label, id, got, ok)
			}
			if got := fresh.InternFrom(byHash, id); got != id {
				t.Fatalf("%s: InternFrom(extension, %d) into a fresh interner = %d", label, id, got)
			}
		}
		checkAgainstMap(t, label+" fresh", fresh, ref)
	}
}
