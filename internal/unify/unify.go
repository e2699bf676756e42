// Package unify implements the value-unification machinery underlying
// instance matches: a union-find structure over constants and labeled nulls
// that detects constant conflicts and supports cheap rollback.
//
// A complete instance match M = (h_l, h_r, m) requires h_l(t) = h_r(t') for
// every matched pair. Growing such a match means repeatedly equating the two
// values found in corresponding cells. The Unifier maintains the resulting
// equivalence classes; a class is inconsistent (and the merge is refused)
// when it would contain two distinct constants. From the final classes both
// value mappings can be read off: every value maps to its class
// representative — the class constant if there is one, otherwise a canonical
// null — and the per-side class sizes yield the paper's non-injectivity
// measure ⊓.
//
// The union-find runs entirely on dense model.ValueID codes: parents, class
// sizes, per-side null counts, and class constants are flat int32 arrays
// indexed by ID, and the undo trail is a slice of plain integers. MergeID /
// UndoTo therefore never touch a map or allocate per merge (the trail slice
// amortizes), which is what the comparison algorithms hammer on. The
// Value-based methods are thin wrappers that intern on demand; they exist
// for callers outside the hot path (tests, explanation assembly).
//
// The Unifier deliberately does not use path compression: all mutations go
// through an undo trail, so tentative merges made while exploring a match
// (exact search backtracking, greedy compatibility probes) can be rolled
// back exactly with Undo.
package unify

import (
	"fmt"
	"slices"

	"instcmp/internal/model"
)

// Side distinguishes the two instances being compared. Labeled nulls belong
// to exactly one side (the comparison precondition Vars(I) ∩ Vars(I') = ∅);
// the per-side class sizes feed the scoring function's ⊓ measure.
type Side int

// The two sides of a comparison.
const (
	Left Side = iota
	Right
)

func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// side-array states: 0 = unregistered null (using it panics, like the old
// node-based implementation), 1/2 = null registered Left/Right, 3 = constant.
const (
	sideNone  uint8 = 0
	sideLeft  uint8 = 1
	sideRight uint8 = 2
	sideConst uint8 = 3
)

// trailEntry records one merge for exact rollback: the absorbed child root,
// the surviving root, and the root's pre-merge aggregates.
type trailEntry struct {
	child, root int32
	prevCls     model.ValueID
	prevNl      int32
	prevNr      int32
	prevSize    int32
}

// Unifier is a union-find over interned values with constant-conflict
// detection and an undo trail. The zero value is usable only after Reset;
// New returns one with a private interner.
type Unifier struct {
	in *model.Interner

	// All arrays are indexed by ValueID and grown lazily to the interner's
	// size. cls holds the class constant's ID at roots (NoValueID if the
	// class has none); nl/nr count left/right nulls in the class at roots.
	parent []int32
	size   []int32
	nl     []int32
	nr     []int32
	cls    []model.ValueID
	side   []uint8

	trail []trailEntry
}

// New returns an empty unifier with its own private interner.
func New() *Unifier { return &Unifier{in: model.NewInterner(0)} }

// Reset empties the unifier and binds it to a shared interner, so that IDs
// handed to MergeID et al. agree with IDs used elsewhere in the
// comparison. It keeps the arrays and the trail for reuse and sizes them
// to the interner at once, so read-only queries (SameClassID,
// SideCountID, ...) grow nothing, at a cost in proportion to in.Len(), not
// to what they grew to before. Reset(nil) drops the interner, so a pooled
// unifier pins nothing.
func (u *Unifier) Reset(in *model.Interner) {
	u.in = in
	u.parent, u.size, u.nl, u.nr = u.parent[:0], u.size[:0], u.nl[:0], u.nr[:0]
	u.cls, u.side, u.trail = u.cls[:0], u.side[:0], u.trail[:0]
	if in != nil {
		u.ensure()
	}
}

// Interner returns the unifier's interner.
func (u *Unifier) Interner() *model.Interner { return u.in }

// ensure grows the per-ID arrays to cover every interned value, each by
// the missing count at once. New slots start as singleton roots; constants
// carry themselves as class constant.
func (u *Unifier) ensure() {
	old, n := len(u.parent), u.in.Len()
	if old >= n {
		return
	}
	u.parent = slices.Grow(u.parent, n-old)[:n]
	u.size = slices.Grow(u.size, n-old)[:n]
	u.nl = slices.Grow(u.nl, n-old)[:n]
	u.nr = slices.Grow(u.nr, n-old)[:n]
	u.cls = slices.Grow(u.cls, n-old)[:n]
	u.side = slices.Grow(u.side, n-old)[:n]
	null := u.in.NullFlags()
	for i := old; i < n; i++ {
		u.parent[i], u.size[i] = int32(i), 1
		u.nl[i], u.nr[i] = 0, 0
		if null[i] {
			u.cls[i] = model.NoValueID
			u.side[i] = sideNone
		} else {
			u.cls[i] = model.ValueID(i)
			u.side[i] = sideConst
		}
	}
}

// AddNull registers a labeled null as belonging to the given side. It is
// idempotent; registering the same null with two different sides panics
// because it violates the disjoint-nulls precondition.
func (u *Unifier) AddNull(v model.Value, side Side) {
	if v.IsConst() {
		panic("unify: AddNull called with a constant")
	}
	u.AddNullID(u.in.Intern(v), side)
}

// AddNullID is AddNull for an already-interned null. Nulls must be
// registered before they participate in any merge.
func (u *Unifier) AddNullID(id model.ValueID, side Side) {
	u.ensure()
	want := sideLeft
	if side == Right {
		want = sideRight
	}
	switch u.side[id] {
	case sideNone:
		u.side[id] = want
		if side == Left {
			u.nl[id] = 1
		} else {
			u.nr[id] = 1
		}
	case want:
		// idempotent re-registration
	case sideConst:
		panic("unify: AddNullID called with a constant")
	default:
		panic(fmt.Sprintf("unify: null %v registered on both sides", u.in.ValueOf(id)))
	}
}

// findID returns the root of id's class. Unregistered nulls panic, matching
// the precondition that AddNull precedes use.
func (u *Unifier) findID(id model.ValueID) int32 {
	i := int32(id)
	if u.side[i] == sideNone {
		panic(fmt.Sprintf("unify: null %v used before AddNull", u.in.ValueOf(id)))
	}
	for u.parent[i] != i {
		i = u.parent[i]
	}
	return i
}

// MergeID equates two interned values. It returns false — leaving the
// unifier unchanged — when the merge would put two distinct constants in one
// class. The merge path is map-free and allocation-free (modulo trail
// growth).
func (u *Unifier) MergeID(a, b model.ValueID) bool {
	u.ensure()
	ra, rb := u.findID(a), u.findID(b)
	if ra == rb {
		return true
	}
	ca, cb := u.cls[ra], u.cls[rb]
	if ca >= 0 && cb >= 0 && ca != cb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.trail = append(u.trail, trailEntry{
		child:    rb,
		root:     ra,
		prevCls:  u.cls[ra],
		prevNl:   u.nl[ra],
		prevNr:   u.nr[ra],
		prevSize: u.size[ra],
	})
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	u.nl[ra] += u.nl[rb]
	u.nr[ra] += u.nr[rb]
	if u.cls[ra] < 0 {
		u.cls[ra] = u.cls[rb]
	}
	return true
}

// Merge equates two values, interning them on demand.
func (u *Unifier) Merge(a, b model.Value) bool {
	return u.MergeID(u.in.Intern(a), u.in.Intern(b))
}

// Mark returns a checkpoint for Undo.
func (u *Unifier) Mark() int { return len(u.trail) }

// Undo rolls back every merge performed after the given checkpoint.
func (u *Unifier) Undo(mark int) {
	for len(u.trail) > mark {
		e := u.trail[len(u.trail)-1]
		u.trail = u.trail[:len(u.trail)-1]
		u.parent[e.child] = e.child
		u.cls[e.root] = e.prevCls
		u.nl[e.root] = e.prevNl
		u.nr[e.root] = e.prevNr
		u.size[e.root] = e.prevSize
	}
}

// SameClassID reports whether two interned values are currently equated.
func (u *Unifier) SameClassID(a, b model.ValueID) bool {
	if a == b {
		return true
	}
	if !u.in.IsNull(a) && !u.in.IsNull(b) {
		return false
	}
	u.ensure()
	return u.findID(a) == u.findID(b)
}

// SameClass reports whether two values are currently equated. Values that
// were never touched are singletons (two distinct untouched values are in
// the same class only if they are the same value).
func (u *Unifier) SameClass(a, b model.Value) bool {
	if a == b {
		return true
	}
	if a.IsConst() && b.IsConst() {
		return false
	}
	return u.SameClassID(u.in.Intern(a), u.in.Intern(b))
}

// ClassConstID returns the ID of the constant of id's class, if any.
func (u *Unifier) ClassConstID(id model.ValueID) (model.ValueID, bool) {
	u.ensure()
	c := u.cls[u.findID(id)]
	return c, c >= 0
}

// ClassConst returns the constant of v's class, if any.
func (u *Unifier) ClassConst(v model.Value) (model.Value, bool) {
	id, ok := u.ClassConstID(u.in.Intern(v))
	if !ok {
		return model.Value{}, false
	}
	return u.in.ValueOf(id), true
}

// RepresentativeID returns the ID every member of id's class maps to under
// the value mappings induced by the unifier: the class constant when the
// class contains one, otherwise the canonical null of the class (the root).
func (u *Unifier) RepresentativeID(id model.ValueID) model.ValueID {
	u.ensure()
	r := u.findID(id)
	if c := u.cls[r]; c >= 0 {
		return c
	}
	return model.ValueID(r)
}

// Representative returns the value every member of v's class maps to under
// the value mappings induced by the unifier: the class constant when the
// class contains one, otherwise the canonical null of the class. Constants
// always map to themselves.
func (u *Unifier) Representative(v model.Value) model.Value {
	return u.in.ValueOf(u.RepresentativeID(u.in.Intern(v)))
}

// SideCountID returns ⊓ for an interned value: 1 for constants, and for a
// null the number of same-side nulls mapped to the same representative
// (Eq. 6 of the paper).
func (u *Unifier) SideCountID(id model.ValueID, side Side) int {
	if !u.in.IsNull(id) {
		return 1
	}
	u.ensure()
	r := u.findID(id)
	if side == Left {
		return int(u.nl[r])
	}
	return int(u.nr[r])
}

// SideCount returns ⊓ for v: 1 for constants, and for a null the number of
// same-side nulls mapped to the same representative (Eq. 6 of the paper).
func (u *Unifier) SideCount(v model.Value, side Side) int {
	if v.IsConst() {
		return 1
	}
	return u.SideCountID(u.in.Intern(v), side)
}

// IsNullID reports whether the coded value is a labeled null.
func (u *Unifier) IsNullID(id model.ValueID) bool { return u.in.IsNull(id) }

// Raw returns the decoded constant text or null name of an interned value.
func (u *Unifier) Raw(id model.ValueID) string { return u.in.ValueOf(id).Raw() }

// Registered reports whether a null has been registered.
func (u *Unifier) Registered(v model.Value) bool {
	id, ok := u.in.Lookup(v)
	if !ok {
		return false
	}
	if v.IsConst() {
		return true
	}
	u.ensure()
	return u.side[id] != sideNone
}
