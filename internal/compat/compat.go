// Package compat implements Algorithm 2 of the paper (CompatibleTuples):
// finding, for each tuple of one instance, the tuples of the other instance
// it could be matched with. It combines the per-attribute hash indexes and
// c-compatibility pruning of Sec. 6.1 with the exact pairwise unification
// check (t ≃ t').
//
// The index, CodedIndex, runs on the integer-coded rows of a
// model.CodedRelation: it groups constant cells by ValueID and null cells by
// attribute in flat counting-sorted arrays. A probe walks one term of
// Alg. 2's intersection, the most selective one, and performs the pairwise
// unification check with a reusable scratch union-find — no map lookup when
// probing, no per-candidate allocation and no string hashing.
// CCompatible and Compatible state Def. 6.1 over Values and serve as the
// reference the coded check is tested against.
package compat

import (
	"math/bits"
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
// reading each row's nullness from its ground mask (so a probe may hold IDs
// interned after the index was built). Most rejected rows conflict on a
// constant both rows hold, so those attributes are compared first, and the
// union-find only sees the attributes where a row is null.
func compatibleRows(a []model.ValueID, am uint64, b []model.ValueID, bm uint64, uf *pairUF) bool {
	both := am & bm
	for m := both; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); a[i] != b[i] {
			return false
		}
	}
	uf.reset()
	for i, la := range a {
		if both&(1<<i) != 0 {
			continue
		}
		lb := b[i]
		ra := uf.find(uf.add(la, am&(1<<i) != 0))
		rb := uf.find(uf.add(lb, bm&(1<<i) != 0))
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
// attribute's V_A buckets at once, and null cells by attribute, which are
// the paper's * buckets. Both groupings are counting-sorted flat arrays, so
// a probe touches no map, and an index rebuilt with Reset reuses them. It
// is what the exact search, the signature algorithm's completion step and
// the scenario generator's gold extension run on.
type CodedIndex struct {
	crel *model.CodedRelation
	// Cells off[id]:off[id+1] of rows/attrs hold constant id: row rows[k]
	// holds it at attribute attrs[k], sorted by attribute, then row.
	// len(off) is one more than the interner's Len at build time.
	off   []int32
	rows  []int32
	attrs []uint8
	// The rows null at attribute a are nrows[noff[a]:noff[a+1]], in row
	// order.
	noff  []int32
	nrows []int32
	// indexed lists the indexed rows in row order. group[ti] numbers
	// indexed row ti's ground mask (its set of constant-valued attributes)
	// in first-seen order.
	indexed []int32
	group   []int32
	// buf backs indexed, group and noff, flat backs rows and nrows. masks
	// lists the distinct ground masks in group order while groups maps
	// them to their numbers; both are build scratch.
	buf, flat []int32
	masks     []uint64
	groups    map[uint64]int32
}

// NewCodedIndex builds the index over the listed row positions (nil means
// all rows), which must be ascending. The interner must be the one the
// relation was coded with.
func NewCodedIndex(crel *model.CodedRelation, idxs []int, in *model.Interner) *CodedIndex {
	ix := new(CodedIndex)
	ix.Reset(crel, idxs, in)
	return ix
}

// Reset rebuilds the receiver as NewCodedIndex(crel, idxs, in) would build
// it, reusing its arrays: the cost is in proportion to the new index and
// in.Len(), whatever the arrays grew to before.
func (ix *CodedIndex) Reset(crel *model.CodedRelation, idxs []int, in *model.Interner) {
	n := len(idxs)
	if idxs == nil {
		n = crel.Rows()
	}
	ix.crel = crel
	ix.off = Zeroed(ix.off, in.Len()+1)
	// First pass: list the rows, count each constant's cells and each
	// attribute's null cells, and number the ground masks. indexed, group
	// and noff share one array.
	rows := crel.Rows()
	ix.buf = Zeroed(ix.buf, n+rows+crel.Arity+1)
	ix.indexed, ix.group, ix.noff = ix.buf[:n:n], ix.buf[n:n+rows:n+rows], ix.buf[n+rows:]
	if ix.groups == nil {
		ix.groups = map[uint64]int32{}
	}
	for _, m := range ix.masks {
		delete(ix.groups, m)
	}
	ix.masks = ix.masks[:0]
	for k := 0; k < n; k++ {
		ti := k
		if idxs != nil {
			ti = idxs[k]
		}
		ix.indexed[k] = int32(ti)
		row, mask := crel.Row(ti), crel.Masks[ti]
		for a, id := range row {
			if mask&(1<<a) != 0 {
				ix.off[id+1]++
			} else {
				ix.noff[a+1]++
			}
		}
		g, seen := ix.groups[mask]
		if !seen {
			g = int32(len(ix.masks))
			ix.groups[mask] = g
			ix.masks = append(ix.masks, mask)
		}
		ix.group[ti] = g
	}
	for i := 1; i < len(ix.off); i++ {
		ix.off[i] += ix.off[i-1]
	}
	for a := 1; a < len(ix.noff); a++ {
		ix.noff[a] += ix.noff[a-1]
	}
	cells := int(ix.off[len(ix.off)-1])
	ix.flat = Zeroed(ix.flat, cells+int(ix.noff[crel.Arity]))
	ix.rows, ix.nrows = ix.flat[:cells:cells], ix.flat[cells:]
	ix.attrs = Zeroed(ix.attrs, cells)
	// Second pass: place the cells, using each list's start as its cursor;
	// afterwards every start has advanced to the next list's, and shifting
	// the offsets up by one restores them. Cells are placed attribute by
	// attribute, so each ID's cells are sorted by attribute, then row.
	for a := 0; a < crel.Arity; a++ {
		for _, ti := range ix.indexed {
			if crel.Masks[ti]&(1<<a) != 0 {
				id := crel.Row(int(ti))[a]
				c := ix.off[id]
				ix.rows[c], ix.attrs[c] = ti, uint8(a)
				ix.off[id]++
			} else {
				ix.nrows[ix.noff[a]] = ti
				ix.noff[a]++
			}
		}
	}
	for _, o := range [][]int32{ix.off, ix.noff} {
		copy(o[1:], o)
		o[0] = 0
	}
}

// Release drops the index's reference to its relation, keeping the arrays
// for the next Reset; the index must be Reset before it is probed again.
func (ix *CodedIndex) Release() { ix.crel = nil }

// Zeroed returns buf resized to n zero elements, reusing its array when it
// is large enough: O(n), whatever buf grew to before. The signature and
// exact engines size their pooled buffers with it too.
func Zeroed[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// Prober is a probe cursor over a CodedIndex: it shares the index's
// immutable arrays but owns the per-probe scratch (the pairwise
// union-find, the sort keys, the output slice), so any number of Probers
// may probe one index concurrently — the signature algorithm's completion
// step creates one per pipeline worker. Candidate order is a function of
// the index alone, so every prober returns identical lists for identical
// probes.
type Prober struct {
	ix   *CodedIndex
	uf   pairUF
	keys []uint64
	out  []int
}

// NewProber returns a fresh probe cursor over the index.
func (ix *CodedIndex) NewProber() *Prober {
	return &Prober{ix: ix}
}

// Reset points the prober at an index, keeping its scratch for reuse.
func (p *Prober) Reset(ix *CodedIndex) { p.ix = ix }

// term returns the cheapest term of Alg. 2's intersection for a probe
// with at least one constant: the probe-constant attribute a with the
// fewest rows that hold the probe's constant at a (cells) plus rows that
// are null at a (nulls). Every row compatible with the probe is in one of
// the two lists, and no row is in both.
func (ix *CodedIndex) term(row []model.ValueID, probeMask uint64) (a int, cells, nulls []int32) {
	// IDs interned after the build are in no cell.
	built := model.ValueID(len(ix.off) - 1)
	best := -1
	for m := probeMask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		var cs []int32
		if id := row[b]; id < built {
			lo, hi := int(ix.off[id]), int(ix.off[id+1])
			from, _ := slices.BinarySearch(ix.attrs[lo:hi], uint8(b))
			to, _ := slices.BinarySearch(ix.attrs[lo:hi], uint8(b+1))
			cs = ix.rows[lo+from : lo+to]
		}
		ns := ix.nrows[ix.noff[b]:ix.noff[b+1]]
		if best < 0 || len(cs)+len(ns) < best {
			a, cells, nulls, best = b, cs, ns, len(cs)+len(ns)
			if best == 0 {
				break
			}
		}
	}
	return a, cells, nulls
}

// Candidates returns the positions of indexed rows compatible (t ≃ t') with
// the probe row, whose ground mask the caller supplies (the coded relations
// precompute it), in ascending order of (the first attribute where both
// rows are constant, else the arity plus the row's mask group; then row
// position). That is the order of a walk over the union of the probe's
// constant cells, attribute by attribute, followed by the rows of each
// ground mask disjoint from the probe's, mask by mask. Every compatible row
// holds the probe's constant or a null at each probe-constant attribute,
// so only the cheapest such attribute's two lists (term) are filtered
// through the exact pairwise check; a probe without constants checks every
// indexed row. The returned slice is reused and only valid until the
// prober's next call.
func (p *Prober) Candidates(row []model.ValueID, probeMask uint64) []int {
	ix := p.ix
	cells, nulls := ix.indexed, []int32(nil)
	if probeMask != 0 {
		_, cells, nulls = ix.term(row, probeMask)
	}
	p.keys = p.keys[:0]
	for _, list := range [2][]int32{cells, nulls} {
		for _, ti := range list {
			mask := ix.crel.Masks[ti]
			if !compatibleRows(row, probeMask, ix.crel.Row(int(ti)), mask, &p.uf) {
				continue
			}
			key := uint64(ix.crel.Arity) + uint64(ix.group[ti])
			if both := mask & probeMask; both != 0 {
				key = uint64(bits.TrailingZeros64(both))
			}
			p.keys = append(p.keys, key<<32|uint64(ti))
		}
	}
	slices.Sort(p.keys)
	p.out = p.out[:0]
	for _, k := range p.keys {
		p.out = append(p.out, int(uint32(k)))
	}
	return p.out
}
