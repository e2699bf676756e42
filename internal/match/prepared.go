package match

// This file implements the Prepare half of the engine's two-phase
// Prepare/Compare API. A PreparedSide is everything about ONE instance that
// a comparison needs and that does not depend on the partner: the relation
// list, the sorted null inventory, and the instance's self-coded integer
// rows. Preparing is done once per instance; Env.Reset then assembles a
// comparison environment from two prepared sides without re-normalizing or
// re-interning either one.
//
// The joint ID space of a comparison is built by block: the left side's
// self-coding is adopted verbatim (its frozen interner is extended, sharing
// its value map and value table read-only), and the right side's distinct
// values are interned into the extension in self-ID order, yielding a
// translation table that remaps the right side's coded rows with a flat
// int32 rewrite.
// Each side interns its sorted nulls first, so union-find representatives
// (and therefore reported value mappings) are deterministic. The one-shot
// NewEnv prepares both sides and calls Env.Reset, so both paths build
// the same environment by construction.

import (
	"fmt"
	"slices"

	"instcmp/internal/model"
	"instcmp/internal/unify"
)

// PreparedSide is the partner-independent half of a comparison over one
// instance. It is immutable after PrepareSide returns and may be shared by
// any number of concurrent comparisons: environments extend the interner and
// remap (or alias) the coded relations, never mutating the prepared state.
type PreparedSide struct {
	// Inst is the prepared instance. The preparing caller owns it and must
	// not mutate it while the PreparedSide is in use.
	Inst *model.Instance
	// Rels is Inst's relation list in schema order.
	Rels []*model.Relation
	// In is the self-interner: this instance's values coded alone, sorted
	// nulls first (IDs 0..len(Vars)-1), then constants in scan order.
	In *model.Interner
	// Code holds the self-coded image of each relation, aligned with Rels.
	Code []*model.CodedRelation
	// Vars is the instance's labeled nulls in sorted order; Vars[i] has
	// self-ID i.
	Vars []model.Value

	nTuples int
}

// PrepareSide validates and codes one instance for reuse across
// comparisons. It does not clone: the caller promises not to mutate inst
// while the prepared side is live (instcmp.Prepare snapshots first).
func PrepareSide(inst *model.Instance) (*PreparedSide, error) {
	rels := inst.Relations()
	cells := 0
	for _, rel := range rels {
		if rel.Arity() > 64 {
			return nil, fmt.Errorf("%w: %s has %d", ErrTooManyAttributes, rel.Name, rel.Arity())
		}
		cells += len(rel.Tuples) * rel.Arity()
	}
	p := &PreparedSide{
		Inst: inst,
		Rels: rels,
		// The cell count bounds the distinct values, so coding never
		// grows the table.
		In:   model.NewInterner(cells),
		Vars: inst.SortedVars(),
		Code: make([]*model.CodedRelation, len(rels)),
	}
	for _, v := range p.Vars {
		p.In.Intern(v)
	}
	for i, rel := range rels {
		p.Code[i] = p.In.Code(rel)
		p.nTuples += len(rel.Tuples)
	}
	return p, nil
}

// NumTuples returns the total tuple count of the prepared instance.
func (p *PreparedSide) NumTuples() int { return p.nTuples }

// WithRelations returns a view of the prepared side over a renamed schema:
// the coded rows, interner, and null inventory are shared (none of them
// depend on relation names), only the instance and relation list differ.
// The caller must pass relations with identical attribute lists in
// identical order; lake ranking uses this to align a single-relation
// candidate's table name with the example's without re-preparing the
// candidate.
func (p *PreparedSide) WithRelations(inst *model.Instance) *PreparedSide {
	v := *p
	v.Inst = inst
	v.Rels = inst.Relations()
	return &v
}

// Reset makes the receiver the comparison environment of two prepared
// sides, with an empty tuple mapping, reusing their codings: the left
// side's coded relations are aliased as-is, the right side's are remapped
// into the joint ID space through one translation table. It also reuses
// every buffer the receiver grew in earlier comparisons (the pair list, the
// image tables, the flat bases, the joint interner's own values and table,
// and the unifier's arrays), and costs O(size of this comparison), not
// O(what those buffers grew to). The zero Env is ready for Reset; Release
// drops what Reset took hold of.
func (e *Env) Reset(l, r *PreparedSide, mode Mode) error {
	if !model.SameSchema(l.Inst, r.Inst) {
		return ErrSchemaMismatch
	}
	for i, v := range r.Vars {
		if _, shared := l.In.LookupFrom(r.In, model.ValueID(i)); shared {
			return fmt.Errorf("%w: %v", ErrSharedNulls, v)
		}
	}
	if e.In == nil {
		e.In, e.U = new(model.Interner), new(unify.Unifier)
	}
	in := e.In
	in.Rebase(l.In, r.In.Len())
	// Extend the joint space with the right side's values in self-ID order
	// (sorted nulls first, then constants in scan order), recording the
	// translation. The right side's stored hashes are reused: no value is
	// hashed again.
	table := slices.Grow(e.table[:0], r.In.Len())[:r.In.Len()]
	for id := range table {
		table[id] = in.InternFrom(r.In, model.ValueID(id))
	}
	e.table = table
	// The joint space is complete: size the unifier once.
	e.U.Reset(in)
	for i := range l.Vars {
		e.U.AddNullID(model.ValueID(i), unify.Left)
	}
	for i := range r.Vars {
		e.U.AddNullID(table[i], unify.Right)
	}
	e.Left, e.Right, e.LRels, e.RRels = l.Inst, r.Inst, l.Rels, r.Rels
	e.LCode, e.LVars, e.RVars, e.Mode = l.Code, l.Vars, r.Vars, mode
	e.RCode = e.RCode[:0]
	for _, c := range r.Code {
		e.RCode = append(e.RCode, c.Remap(table))
	}
	e.lBase, e.nL = flatBases(e.lBase[:0], e.LRels)
	e.rBase, e.nR = flatBases(e.rBase[:0], e.RRels)
	// Both sides' images share one backing array, and each starts as a
	// capacity-1 window into one slab of Refs, so a tuple's first pair is
	// stored without allocating; appending a second outgrows the window
	// and moves that image to an array of its own, never into a
	// neighbour's slot.
	n := e.nL + e.nR
	e.img = slices.Grow(e.img[:0], n)[:n]
	e.slab = slices.Grow(e.slab[:0], n)[:n]
	for i := range e.img {
		e.img[i] = e.slab[i : i : i+1]
	}
	e.leftImg, e.rightImg = e.img[:e.nL:e.nL], e.img[e.nL:]
	e.pairs = e.pairs[:0]
	e.Stats = EnvStats{}
	return nil
}

// Release drops every reference the environment holds to the compared
// instances, their prepared sides and their interners, keeping its own
// buffers for the next Reset: a pooled environment pins nothing it once
// compared.
func (e *Env) Release() {
	clear(e.RCode)
	e.RCode = e.RCode[:0]
	e.Left, e.Right, e.LRels, e.RRels = nil, nil, nil, nil
	e.LCode, e.LVars, e.RVars = nil, nil, nil
	if e.In != nil {
		e.In.Rebase(nil, 0)
		e.U.Reset(nil)
	}
}

// ValueOverlap is instcmp.Prepared.ValueOverlap. The self-interner codes
// constants in first-seen scan order after the nulls, so a side's sample is
// the ID range [len(Vars), len(Vars)+n): one lookup per value of q's sample.
func (p *PreparedSide) ValueOverlap(q *PreparedSide, maxSample int) float64 {
	np := min(maxSample, p.In.Len()-len(p.Vars))
	nq := min(maxSample, q.In.Len()-len(q.Vars))
	if np == 0 && nq == 0 {
		return 1
	}
	inter := 0
	for id := len(q.Vars); id < len(q.Vars)+nq; id++ {
		pid, ok := p.In.LookupFrom(q.In, model.ValueID(id))
		if ok && int(pid) >= len(p.Vars) && int(pid) < len(p.Vars)+np {
			inter++
		}
	}
	return float64(inter) / float64(np+nq-inter)
}

// flatBases appends the flattened per-side index bases to base: flat
// index of (rel, idx) is base[rel] + idx.
func flatBases(base []int, rels []*model.Relation) ([]int, int) {
	n := 0
	for _, rel := range rels {
		base = append(base, n)
		n += len(rel.Tuples)
	}
	return base, n
}
