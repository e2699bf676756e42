package model

// This file implements the integer-coded representation the comparison
// engine runs on. String-backed Values are interned once per comparison into
// dense ValueID codes; tuples become flat []ValueID rows. Every hot path —
// union-find merges, signature hashing, cell scoring, candidate indexing —
// then works on small integers and array indexing instead of string-keyed
// maps. The textual Values are recovered through the Interner only at the
// explanation boundary (see instcmp's fillExplanation).

import (
	"hash/maphash"
	"slices"
)

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
//
// The index is one flat open-addressing table: slots holds own index + 1
// (0 marks an empty slot) at a power-of-two size, probed linearly from the
// value's hash and kept at most half full. Each value's 64-bit hash is
// computed once and stored beside it, so growing the table, and moving a
// value into another interner (InternFrom, LookupFrom), never hashes a
// string again. IDs depend only on insertion order, never on the hash.
type Interner struct {
	// base is the root an extension reads read-only: IDs below base.Len()
	// are the root's, the rest are this interner's own. nil at the root.
	base *Interner
	// vals and hashes hold the own values and their hashes, indexed by
	// ID - off.
	vals   []Value
	hashes []uint64
	slots  []int32
	off    int
	// hint is the value count the first table is sized for.
	hint int
	// null covers every ID, the root's included.
	null []bool
}

// internSeed keys every interner's hash, so an interner can reuse the hash
// another one stored (InternFrom). It is random per process, and no ID
// depends on it.
var internSeed = maphash.MakeSeed()

// internHash is the hash an interner stores for v: the string's hash, with
// the null flag folded in so Const("x") and Null("x") land apart.
func internHash(v Value) uint64 {
	h := maphash.String(internSeed, v.s)
	if v.null {
		h = ^h
	}
	return h
}

// NewInterner returns an empty interner sized for hint distinct values
// without growing; more may be interned.
func NewInterner(hint int) *Interner {
	return &Interner{
		vals:   make([]Value, 0, hint),
		hashes: make([]uint64, 0, hint),
		null:   make([]bool, 0, hint),
		hint:   hint,
	}
}

// Intern returns v's ID, assigning the next dense code on first sight.
func (in *Interner) Intern(v Value) ValueID { return in.intern(v, internHash(v)) }

// InternFrom interns the value src codes as id, reusing the hash src
// stored for it.
func (in *Interner) InternFrom(src *Interner, id ValueID) ValueID {
	v, h := src.entry(id)
	return in.intern(v, h)
}

// Lookup returns v's ID without interning it.
func (in *Interner) Lookup(v Value) (ValueID, bool) {
	id, _, ok := in.find(v, internHash(v))
	return id, ok
}

// LookupFrom looks up the value src codes as id, reusing the hash src
// stored for it.
func (in *Interner) LookupFrom(src *Interner, id ValueID) (ValueID, bool) {
	v, h := src.entry(id)
	id, _, ok := in.find(v, h)
	return id, ok
}

// entry returns the value coded as id and its stored hash.
func (in *Interner) entry(id ValueID) (Value, uint64) {
	if int(id) < in.off {
		return in.base.vals[id], in.base.hashes[id]
	}
	i := int(id) - in.off
	return in.vals[i], in.hashes[i]
}

func (in *Interner) intern(v Value, h uint64) ValueID {
	id, slot, ok := in.find(v, h)
	if ok {
		return id
	}
	if 2*(len(in.vals)+1) > len(in.slots) {
		in.grow()
		_, slot, _ = in.find(v, h)
	}
	in.slots[slot] = int32(len(in.vals) + 1)
	in.vals = append(in.vals, v)
	in.hashes = append(in.hashes, h)
	in.null = append(in.null, v.null)
	return ValueID(len(in.null) - 1)
}

// find returns v's ID when the base or the own table holds it. Otherwise
// it returns the empty own slot that ends v's probe run (meaningless while
// the own table is not made yet).
func (in *Interner) find(v Value, h uint64) (ValueID, int, bool) {
	if in.base != nil {
		if id, _, ok := in.base.find(v, h); ok {
			return id, 0, true
		}
	}
	if len(in.slots) == 0 {
		return NoValueID, 0, false
	}
	mask := len(in.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := in.slots[i]
		if s == 0 {
			return NoValueID, i, false
		}
		if in.hashes[s-1] == h && in.vals[s-1] == v {
			return ValueID(in.off + int(s) - 1), i, true
		}
	}
}

// grow doubles the table, or makes the first one, sized for hint values.
// An interner that never interns (an extension whose values are all its
// base's) makes no table.
func (in *Interner) grow() {
	size := 2 * len(in.slots)
	if size == 0 {
		size = tableSize(in.hint)
	}
	in.rehash(size)
}

// tableSize is the smallest power-of-two table, at least 8, that holds n
// values at load at most 1/2.
func tableSize(n int) int {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return size
}

// rehash rebuilds the table at the given size from the stored hashes,
// reusing the slot array when it is large enough.
func (in *Interner) rehash(size int) {
	in.slots = slices.Grow(in.slots[:0], size)[:size]
	clear(in.slots)
	mask := size - 1
	for j, h := range in.hashes {
		i := int(h) & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = int32(j + 1)
	}
}

// Rebase makes the receiver an extension of base: an interner that
// continues base's coding, giving every value exactly the ID that interning
// it into base would. The extension shares base's table, values and hashes
// read-only and copies only the nullness table; new values go to a table of
// its own, sized from hint on first use. base must be a root interner (not
// an extension; Rebase panics otherwise) that never interns again, as
// prepared interners are; any number of goroutines may extend it. Rebase
// reuses the receiver's own buffers: it costs O(base.Len() + hint) plus the
// own values the receiver held, whatever it grew to before. Rebase(nil, 0)
// leaves an empty root that holds no value and no base, so a pooled
// interner pins nothing it once coded.
func (in *Interner) Rebase(base *Interner, hint int) {
	if base != nil && base.base != nil {
		panic("model: Rebase onto an extended interner")
	}
	clear(in.vals)
	in.vals, in.hashes, in.slots, in.null = in.vals[:0], in.hashes[:0], in.slots[:0], in.null[:0]
	in.base, in.off, in.hint = base, 0, hint
	if base != nil {
		in.off = len(base.vals)
		in.null = append(in.null, base.null...)
	}
}

// ValueOf decodes an ID back to its Value.
func (in *Interner) ValueOf(id ValueID) Value {
	if int(id) < in.off {
		return in.base.vals[id]
	}
	return in.vals[int(id)-in.off]
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
