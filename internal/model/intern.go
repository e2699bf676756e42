package model

// This file implements the integer-coded representation the comparison
// engine runs on. String-backed Values are interned once per comparison into
// dense ValueID codes; tuples become flat []ValueID rows. Every hot path —
// union-find merges, signature hashing, cell scoring, candidate indexing —
// then works on small integers and array indexing instead of string-keyed
// maps. The textual Values are recovered through the Interner only at the
// explanation boundary (see instcmp's fillExplanation).

// ValueID is a dense integer code for a Value within one comparison. IDs are
// assigned consecutively from 0 by an Interner; the same Value always
// receives the same ID from a given Interner, and distinct Values receive
// distinct IDs, so two cells hold the same value exactly when their IDs are
// equal.
type ValueID int32

// NoValueID is a sentinel that is never a valid ValueID.
const NoValueID ValueID = -1

// Interner assigns dense ValueID codes to Values and decodes them back. It
// is shared by both sides of one comparison: left and right cells that hold
// the same constant receive the same ID, which is what makes ID equality
// meaningful. The zero value is not usable; call NewInterner.
type Interner struct {
	// An extension reads its root's map and values read-only: IDs below
	// len(baseVals) are the root's, the rest are in ids/vals. Both are nil
	// at the root.
	base     map[Value]ValueID
	baseVals []Value
	ids      map[Value]ValueID
	vals     []Value
	// null covers every ID, the root's included.
	null []bool
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[Value]ValueID)}
}

// Intern returns v's ID, assigning the next dense code on first sight.
func (in *Interner) Intern(v Value) ValueID {
	if id, ok := in.Lookup(v); ok {
		return id
	}
	if in.ids == nil {
		in.ids = make(map[Value]ValueID, cap(in.vals)-len(in.vals))
	}
	id := ValueID(len(in.null))
	in.ids[v] = id
	in.vals = append(in.vals, v)
	in.null = append(in.null, v.IsNull())
	return id
}

// Lookup returns v's ID without interning it.
func (in *Interner) Lookup(v Value) (ValueID, bool) {
	if id, ok := in.base[v]; ok {
		return id, true
	}
	id, ok := in.ids[v]
	return id, ok
}

// Extend returns an interner that continues the receiver's coding, giving
// every value exactly the ID that interning it into the receiver would. It
// shares the receiver's value map and value table read-only and copies only
// the nullness table, sized for hint more values; new values go to a map
// and a table of its own. The receiver must be a root interner (not an
// extension; Extend panics otherwise) that never interns again, as
// prepared interners are; any number of goroutines may extend it.
func (in *Interner) Extend(hint int) *Interner {
	if in.base != nil {
		panic("model: Extend called on an extended interner")
	}
	return &Interner{
		base:     in.ids,
		baseVals: in.vals,
		vals:     make([]Value, 0, hint),
		null:     append(make([]bool, 0, len(in.null)+hint), in.null...),
	}
}

// ValueOf decodes an ID back to its Value.
func (in *Interner) ValueOf(id ValueID) Value {
	if int(id) < len(in.baseVals) {
		return in.baseVals[id]
	}
	return in.vals[int(id)-len(in.baseVals)]
}

// IsNull reports whether the coded value is a labeled null.
func (in *Interner) IsNull(id ValueID) bool { return in.null[id] }

// Len returns the number of interned values; valid IDs are [0, Len).
func (in *Interner) Len() int { return len(in.null) }

// NullFlags exposes the ID-indexed nullness table for hot loops. The slice
// is shared with the interner and only valid until the next Intern call;
// callers must treat it as read-only.
func (in *Interner) NullFlags() []bool { return in.null }

// CodedRelation is the integer-coded image of one relation: all rows
// flattened into a single []ValueID (row-major, cache-friendly) plus each
// row's ground mask (the bitmask of constant-valued attributes, the quantity
// the signature algorithm's null-pattern machinery works with).
type CodedRelation struct {
	Arity int
	// Masks holds the per-row ground masks; len(Masks) is the row count.
	Masks []uint64
	vals  []ValueID
}

// Code interns every cell of the relation and returns its coded image.
// Relations wider than 64 attributes cannot be mask-coded; callers validate
// arity beforehand (match.PrepareSide does).
func (in *Interner) Code(rel *Relation) *CodedRelation {
	c := &CodedRelation{
		Arity: rel.Arity(),
		Masks: make([]uint64, len(rel.Tuples)),
		vals:  make([]ValueID, 0, len(rel.Tuples)*rel.Arity()),
	}
	for ti := range rel.Tuples {
		var mask uint64
		for a, v := range rel.Tuples[ti].Values {
			if v.IsConst() {
				mask |= 1 << a
			}
			c.vals = append(c.vals, in.Intern(v))
		}
		c.Masks[ti] = mask
	}
	return c
}

// Remap returns a copy of the relation recoded through an ID translation
// table: every cell id becomes table[id]. Ground masks are a property of the
// values, not their codes, so the Masks slice is shared with the receiver.
// Remapping is how a prepared instance's self-coded rows are moved into a
// comparison's joint ID space: a flat int32 rewrite, with no map lookups and
// no Value hashing.
func (c *CodedRelation) Remap(table []ValueID) *CodedRelation {
	out := &CodedRelation{
		Arity: c.Arity,
		Masks: c.Masks,
		vals:  make([]ValueID, len(c.vals)),
	}
	for i, id := range c.vals {
		out.vals[i] = table[id]
	}
	return out
}

// Rows returns the number of coded rows.
func (c *CodedRelation) Rows() int { return len(c.Masks) }

// Row returns the i-th coded row. The slice aliases the relation's flat
// storage; callers must not mutate it.
func (c *CodedRelation) Row(i int) []ValueID {
	return c.vals[i*c.Arity : (i+1)*c.Arity : (i+1)*c.Arity]
}
