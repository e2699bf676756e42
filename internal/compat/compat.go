// Package compat implements Algorithm 2 of the paper (CompatibleTuples):
// finding, for each tuple of one instance, the tuples of the other instance
// it could be matched with. It combines the per-attribute hash indexes and
// c-compatibility pruning of Sec. 6.1 with the exact pairwise unification
// check (t ≃ t').
//
// The index, CodedIndex, runs on the integer-coded rows of a
// model.CodedRelation: it groups cells by ValueID and rows by ground mask in
// flat counting-sorted arrays, and performs the pairwise unification check
// with a reusable scratch union-find — no map lookup when probing, no
// per-candidate allocation and no string hashing. CCompatible and Compatible state Def. 6.1 over
// Values and serve as the reference the coded check is tested against.
package compat

import (
	"slices"

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

// CodedIndex is the index V_A of Alg. 2 over a coded relation, probed
// with coded rows. Constant cells are grouped by ValueID, which covers every
// attribute's V_A buckets at once. Instead of the paper's single * bucket
// per attribute, rows are grouped by their ground mask (the set of
// constant-valued attributes), which lets a probe enumerate "all
// probe-constant attributes are null here" rows without scanning every row
// that has a null somewhere. Both groupings are counting-sorted flat
// arrays, so a build is a few slice allocations plus a mask-to-group map
// that does not outlive it, and a probe touches no map. It is what the
// exact search, the signature algorithm's completion step and the scenario
// generator's gold extension run on.
type CodedIndex struct {
	crel *model.CodedRelation
	null []bool
	// Cells off[id]:off[id+1] of rows/attrs hold constant id: row rows[k]
	// holds it at attribute attrs[k], sorted by attribute, then row.
	// len(off) is one more than the interner's Len at build time.
	off   []int32
	rows  []int32
	attrs []uint8
	// masks lists the distinct ground masks in first-seen order; the rows
	// with ground mask masks[g] are mrows[moff[g]:moff[g+1]], in row order.
	masks []uint64
	moff  []int32
	mrows []int32
}

// NewCodedIndex builds the index over the listed row positions (nil means
// all rows). The interner must be the one the relation was coded with.
func NewCodedIndex(crel *model.CodedRelation, idxs []int, in *model.Interner) *CodedIndex {
	n := len(idxs)
	if idxs == nil {
		n = crel.Rows()
	}
	at := func(k int) int {
		if idxs == nil {
			return k
		}
		return idxs[k]
	}
	ix := &CodedIndex{crel: crel, null: in.NullFlags(), off: make([]int32, in.Len()+1)}
	// First pass: count each constant's cells and each row's mask group.
	// group is scratch sharing one allocation with mrows.
	buf := make([]int32, 2*n)
	ix.mrows = buf[:n:n]
	group := buf[n:]
	groups := map[uint64]int32{}
	for k := 0; k < n; k++ {
		ti := at(k)
		row, mask := crel.Row(ti), crel.Masks[ti]
		for a, id := range row {
			if mask&(1<<a) != 0 {
				ix.off[id+1]++
			}
		}
		g, seen := groups[mask]
		if !seen {
			g = int32(len(ix.masks))
			groups[mask] = g
			ix.masks = append(ix.masks, mask)
		}
		group[k] = g
	}
	for i := 1; i < len(ix.off); i++ {
		ix.off[i] += ix.off[i-1]
	}
	cells := int(ix.off[len(ix.off)-1])
	flat := make([]int32, cells+len(ix.masks)+1)
	ix.rows, ix.moff = flat[:cells:cells], flat[cells:]
	ix.attrs = make([]uint8, cells)
	for _, g := range group {
		ix.moff[g+1]++
	}
	for g := 1; g < len(ix.moff); g++ {
		ix.moff[g] += ix.moff[g-1]
	}
	// Second pass: place cells and rows, using each group's start as its
	// cursor; afterwards every start has advanced to the next group's, and
	// shifting the offsets up by one restores them. Cells are placed
	// attribute by attribute, so each ID's cells are sorted by attribute,
	// then row.
	for a := 0; a < crel.Arity; a++ {
		for k := 0; k < n; k++ {
			ti := at(k)
			if crel.Masks[ti]&(1<<a) != 0 {
				id := crel.Row(ti)[a]
				c := ix.off[id]
				ix.rows[c], ix.attrs[c] = int32(ti), uint8(a)
				ix.off[id]++
			}
		}
	}
	for k, g := range group {
		ix.mrows[ix.moff[g]] = int32(at(k))
		ix.moff[g]++
	}
	copy(ix.off[1:], ix.off)
	ix.off[0] = 0
	copy(ix.moff[1:], ix.moff)
	ix.moff[0] = 0
	return ix
}

// Prober is a probe cursor over a CodedIndex: it shares the index's
// immutable arrays but owns the per-probe scratch (the dedup stamps, the
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
// precompute it). Every compatible row either shares a constant with the
// probe on some attribute (and is among that constant's cells) or is null
// on every probe-constant attribute (and is in a mask group disjoint from
// the probe's); both groups are filtered through the exact pairwise check.
// The returned slice is reused and only valid until the prober's next call.
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
	// IDs interned after the build are in no cell.
	built := model.ValueID(len(ix.off) - 1)
	for a, id := range row {
		if probeMask&(1<<a) == 0 || id >= built {
			continue
		}
		lo, hi := int(ix.off[id]), int(ix.off[id+1])
		c, _ := slices.BinarySearch(ix.attrs[lo:hi], uint8(a))
		for c += lo; c < hi && int(ix.attrs[c]) == a; c++ {
			check(ix.rows[c])
		}
	}
	for g, mask := range ix.masks {
		if mask&probeMask == 0 {
			for _, ti := range ix.mrows[ix.moff[g]:ix.moff[g+1]] {
				check(ti)
			}
		}
	}
	return p.out
}
