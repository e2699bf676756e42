// Package compat implements Algorithm 2 of the paper (CompatibleTuples):
// finding, for each tuple of one instance, the tuples of the other instance
// it could be matched with. It combines the per-attribute hash indexes and
// c-compatibility pruning of Sec. 6.1 with the exact pairwise unification
// check (t ≃ t').
//
// Two index flavors exist. CodedIndex is what the comparison algorithms use:
// it runs on the integer-coded rows of a model.CodedRelation, buckets by
// ValueID, and performs the pairwise unification check with a reusable
// scratch union-find — no per-candidate allocation and no string hashing.
// The Value/Tuple-based Index remains for callers outside the coded world
// (the scenario generator's gold-extension, tests).
package compat

import (
	"instcmp/internal/model"
)

// CCompatible implements Def. 6.1's necessary condition t ~ t': the tuples
// hold no conflicting constants (every attribute has equal constants or at
// least one null).
func CCompatible(lt, rt *model.Tuple) bool {
	for i, lv := range lt.Values {
		rv := rt.Values[i]
		if lv.IsConst() && rv.IsConst() && lv != rv {
			return false
		}
	}
	return true
}

// Compatible implements Def. 6.1's t ≃ t': value mappings h_l, h_r with
// h_l(t) = h_r(t') exist. This is a unification over the at most 2·arity
// values of the pair; it fails exactly when some equivalence class would
// contain two distinct constants (e.g. ⟨a1,b1,c1⟩ vs ⟨a1,N1,N1⟩, where N1
// would need to equal both b1 and c1).
func Compatible(lt, rt *model.Tuple) bool {
	// A tiny union-find over the pair's values, with constants kept at
	// class roots so conflicts surface as two constant roots meeting.
	var parent map[model.Value]model.Value
	find := func(v model.Value) model.Value {
		for {
			p, ok := parent[v]
			if !ok {
				return v
			}
			v = p
		}
	}
	for i, lv := range lt.Values {
		rv := rt.Values[i]
		if lv.IsConst() && rv.IsConst() {
			if lv != rv {
				return false
			}
			continue
		}
		if parent == nil {
			parent = make(map[model.Value]model.Value, 2*len(lt.Values))
		}
		ra, rb := find(lv), find(rv)
		if ra == rb {
			continue
		}
		if ra.IsConst() && rb.IsConst() {
			return false
		}
		if rb.IsConst() {
			parent[ra] = rb
		} else {
			parent[rb] = ra
		}
	}
	return true
}

// pairUF is a scratch union-find over the ≤ 2·arity distinct ValueIDs of one
// tuple pair. Elements are located by linear scan — with at most 128
// entries that beats any map — and the backing slices are reused across
// calls, so a pairwise check allocates nothing after warm-up. Constants are
// kept at class roots, mirroring Compatible above.
type pairUF struct {
	ids    []model.ValueID
	parent []int32
	isC    []bool
}

func (u *pairUF) reset() {
	u.ids = u.ids[:0]
	u.parent = u.parent[:0]
	u.isC = u.isC[:0]
}

// add returns the element index of id, registering it on first sight.
func (u *pairUF) add(id model.ValueID, isConst bool) int32 {
	for j, x := range u.ids {
		if x == id {
			return int32(j)
		}
	}
	j := int32(len(u.ids))
	u.ids = append(u.ids, id)
	u.parent = append(u.parent, j)
	u.isC = append(u.isC, isConst)
	return j
}

func (u *pairUF) find(j int32) int32 {
	for u.parent[j] != j {
		j = u.parent[j]
	}
	return j
}

// compatibleRows is the coded form of CCompatible && Compatible: it reports
// whether two coded rows admit value mappings with h_l(t) = h_r(t'),
// reading nullness from the ID-indexed flag table.
func compatibleRows(a, b []model.ValueID, null []bool, uf *pairUF) bool {
	uf.reset()
	for i, la := range a {
		lb := b[i]
		an, bn := null[la], null[lb]
		if !an && !bn {
			if la != lb {
				return false
			}
			continue
		}
		ra := uf.find(uf.add(la, !an))
		rb := uf.find(uf.add(lb, !bn))
		if ra == rb {
			continue
		}
		if uf.isC[ra] && uf.isC[rb] {
			return false
		}
		if uf.isC[rb] {
			uf.parent[ra] = rb
		} else {
			uf.parent[rb] = ra
		}
	}
	return true
}

// Index is the per-attribute hash index V_A of Alg. 2: for each attribute,
// constant values map to the positions holding them. Instead of the paper's
// single * bucket per attribute, tuples are additionally grouped by their
// ground mask (the set of constant-valued attributes), which lets Candidates
// enumerate "all probe-constant attributes are null here" tuples without
// scanning every tuple that has a null somewhere.
type Index struct {
	rel     *model.Relation
	idxs    []int
	byConst []map[model.Value][]int
	byMask  map[uint64][]int // ground mask -> positions
	masks   []uint64         // distinct ground masks
	stamp   []int            // de-duplication stamps, len(rel.Tuples)
	gen     int
}

// MaxIndexArity bounds relation arity for mask-based indexing.
const MaxIndexArity = 64

// NewIndex builds the index over the listed tuple positions of a relation
// (nil means all tuples).
func NewIndex(rel *model.Relation, idxs []int) *Index {
	if rel.Arity() > MaxIndexArity {
		panic("compat: relation arity exceeds 64")
	}
	if idxs == nil {
		idxs = make([]int, len(rel.Tuples))
		for i := range idxs {
			idxs[i] = i
		}
	}
	ix := &Index{
		rel:     rel,
		idxs:    idxs,
		byConst: make([]map[model.Value][]int, rel.Arity()),
		byMask:  map[uint64][]int{},
		stamp:   make([]int, len(rel.Tuples)),
	}
	for a := range ix.byConst {
		ix.byConst[a] = map[model.Value][]int{}
	}
	for _, ti := range idxs {
		t := &rel.Tuples[ti]
		var mask uint64
		for a, v := range t.Values {
			if v.IsConst() {
				mask |= 1 << a
				ix.byConst[a][v] = append(ix.byConst[a][v], ti)
			}
		}
		if _, seen := ix.byMask[mask]; !seen {
			ix.masks = append(ix.masks, mask)
		}
		ix.byMask[mask] = append(ix.byMask[mask], ti)
	}
	return ix
}

// GroundMask returns the bitmask of constant-valued attributes of a tuple.
func GroundMask(t *model.Tuple) uint64 {
	var mask uint64
	for a, v := range t.Values {
		if v.IsConst() {
			mask |= 1 << a
		}
	}
	return mask
}

// Candidates returns the positions of indexed tuples compatible (t ≃ t')
// with the given probe tuple. Every compatible tuple either shares a
// constant with the probe on some attribute (and is found in that
// attribute's V_A bucket) or is null on every probe-constant attribute (and
// is found through a ground mask disjoint from the probe's); both groups
// are filtered through the exact pairwise check.
func (ix *Index) Candidates(t *model.Tuple) []int {
	ix.gen++
	var out []int
	check := func(ti int) {
		if ix.stamp[ti] == ix.gen {
			return
		}
		ix.stamp[ti] = ix.gen
		cand := &ix.rel.Tuples[ti]
		if CCompatible(t, cand) && Compatible(t, cand) {
			out = append(out, ti)
		}
	}
	probeMask := GroundMask(t)
	for a, v := range t.Values {
		if v.IsConst() {
			for _, ti := range ix.byConst[a][v] {
				check(ti)
			}
		}
	}
	for _, mask := range ix.masks {
		if mask&probeMask == 0 {
			for _, ti := range ix.byMask[mask] {
				check(ti)
			}
		}
	}
	return out
}

// Candidates computes the full compatibility map of Alg. 2 for one
// relation pair: for every listed left position, the compatible right
// positions. Passing nil position lists means all tuples of that side.
func Candidates(lrel, rrel *model.Relation, leftIdxs, rightIdxs []int) map[int][]int {
	ix := NewIndex(rrel, rightIdxs)
	if leftIdxs == nil {
		leftIdxs = make([]int, len(lrel.Tuples))
		for i := range leftIdxs {
			leftIdxs[i] = i
		}
	}
	out := make(map[int][]int, len(leftIdxs))
	for _, li := range leftIdxs {
		out[li] = ix.Candidates(&lrel.Tuples[li])
	}
	return out
}

// CodedIndex is the Alg. 2 index over a coded relation: per-attribute
// buckets keyed by ValueID plus the ground-mask grouping of Index, probed
// with coded rows. It is what the exact search and the signature
// algorithm's completion step run on.
type CodedIndex struct {
	crel    *model.CodedRelation
	null    []bool
	byConst []map[model.ValueID][]int32
	byMask  map[uint64][]int32
	masks   []uint64
}

// NewCodedIndex builds the index over the listed row positions (nil means
// all rows). The interner must be the one the relation was coded with.
func NewCodedIndex(crel *model.CodedRelation, idxs []int, in *model.Interner) *CodedIndex {
	ix := &CodedIndex{
		crel:    crel,
		null:    in.NullFlags(),
		byConst: make([]map[model.ValueID][]int32, crel.Arity),
		byMask:  map[uint64][]int32{},
	}
	for a := range ix.byConst {
		ix.byConst[a] = map[model.ValueID][]int32{}
	}
	add := func(ti int) {
		row, mask := ix.crel.Row(ti), ix.crel.Masks[ti]
		for a, id := range row {
			if mask&(1<<a) != 0 {
				ix.byConst[a][id] = append(ix.byConst[a][id], int32(ti))
			}
		}
		if _, seen := ix.byMask[mask]; !seen {
			ix.masks = append(ix.masks, mask)
		}
		ix.byMask[mask] = append(ix.byMask[mask], int32(ti))
	}
	if idxs == nil {
		for ti := 0; ti < crel.Rows(); ti++ {
			add(ti)
		}
	} else {
		for _, ti := range idxs {
			add(ti)
		}
	}
	return ix
}

// Prober is a probe cursor over a CodedIndex: it shares the index's
// immutable buckets but owns the per-probe scratch (the dedup stamps, the
// pairwise union-find, the output slice), so any number of Probers may
// probe one index concurrently — the signature algorithm's completion step
// creates one per pipeline worker. Candidate order is a function of the
// index alone, so every prober returns identical lists for identical
// probes.
type Prober struct {
	ix    *CodedIndex
	stamp []int32
	gen   int32
	uf    pairUF
	out   []int
}

// NewProber returns a fresh probe cursor over the index.
func (ix *CodedIndex) NewProber() *Prober {
	return &Prober{ix: ix, stamp: make([]int32, ix.crel.Rows())}
}

// Candidates returns the positions of indexed rows compatible (t ≃ t') with
// the probe row, whose ground mask the caller supplies (the coded relations
// precompute it). The returned slice is reused and only valid until the
// prober's next call.
func (p *Prober) Candidates(row []model.ValueID, probeMask uint64) []int {
	ix := p.ix
	p.gen++
	p.out = p.out[:0]
	check := func(ti int32) {
		if p.stamp[ti] == p.gen {
			return
		}
		p.stamp[ti] = p.gen
		if compatibleRows(row, ix.crel.Row(int(ti)), ix.null, &p.uf) {
			p.out = append(p.out, int(ti))
		}
	}
	for a, id := range row {
		if probeMask&(1<<a) != 0 {
			for _, ti := range ix.byConst[a][id] {
				check(ti)
			}
		}
	}
	for _, mask := range ix.masks {
		if mask&probeMask == 0 {
			for _, ti := range ix.byMask[mask] {
				check(ti)
			}
		}
	}
	return p.out
}
