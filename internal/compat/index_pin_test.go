package compat

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"instcmp/internal/model"
)

// mapCodedIndex is the map-bucketed form of CodedIndex: one
// map[ValueID][]int32 per attribute plus a ground-mask map, probed
// attribute by attribute and then mask by mask in first-seen order. It is
// the reference the flat index's candidate lists, and their order, are
// pinned against.
type mapCodedIndex struct {
	crel    *model.CodedRelation
	byConst []map[model.ValueID][]int32
	byMask  map[uint64][]int32
	masks   []uint64
}

func newMapCodedIndex(crel *model.CodedRelation, idxs []int, in *model.Interner) *mapCodedIndex {
	ix := &mapCodedIndex{
		crel:    crel,
		byConst: make([]map[model.ValueID][]int32, crel.Arity),
		byMask:  map[uint64][]int32{},
	}
	for a := range ix.byConst {
		ix.byConst[a] = map[model.ValueID][]int32{}
	}
	add := func(ti int) {
		row, mask := crel.Row(ti), crel.Masks[ti]
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

func (ix *mapCodedIndex) candidates(row []model.ValueID, probeMask uint64) []int {
	var out []int
	seen := make([]bool, ix.crel.Rows())
	var uf pairUF
	check := func(ti int32) {
		if seen[ti] {
			return
		}
		seen[ti] = true
		if compatibleRows(row, probeMask, ix.crel.Row(int(ti)), ix.crel.Masks[ti], &uf) {
			out = append(out, int(ti))
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
	return out
}

// pinRelation draws a random relation: constants at attribute a come from
// the first pools[a] values of one pool shared by every attribute (so one
// ValueID sits in several attributes' buckets), nulls from a small per-side
// pool (so a null repeats within and across rows), at a null rate of
// nullPct percent; about one row in ten of a side with nulls is null
// throughout.
func pinRelation(rng *rand.Rand, side string, rows int, pools []int, nullPct int) *model.Relation {
	r := &model.Relation{Name: "R"}
	for a := range pools {
		r.Attrs = append(r.Attrs, fmt.Sprintf("A%d", a))
	}
	nulls := 1 + rows/3
	for i := 0; i < rows; i++ {
		allNull := nullPct > 0 && rng.Intn(10) == 0
		vals := make([]model.Value, len(pools))
		for a := range vals {
			if allNull || rng.Intn(100) < nullPct {
				vals[a] = model.Nullf("%s%d", side, rng.Intn(nulls))
			} else {
				vals[a] = model.Constf("k%d", rng.Intn(pools[a]))
			}
		}
		r.Tuples = append(r.Tuples, model.Tuple{ID: model.TupleID(i), Values: vals})
	}
	return r
}

// TestCodedIndexMatchesMapIndex pins CodedIndex's candidate lists, order
// included, to the map-bucketed reference over random coded relations:
// 1-20 attributes, 1-200 rows, null rates up to 80%, all-null probe rows,
// repeated nulls, constants shared across attributes, low-cardinality
// leading attributes (so the probe's cheapest term is often a later
// attribute), probe constants the index never saw (the left pools are
// wider), and both a nil and an ascending-subset idxs.
func TestCodedIndexMatchesMapIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var laterTerms, allNullProbes int
	for trial := 0; trial < 400; trial++ {
		arity := 1 + rng.Intn(6)
		if trial%5 == 4 {
			arity = 1 + rng.Intn(20)
		}
		rows := 20
		if trial%8 == 7 {
			rows = 200
		}
		nullPct := []int{0, 20, 50, 80}[trial%4]
		consts := 2 + rng.Intn(6)
		rpools, lpools := make([]int, arity), make([]int, arity)
		for a := range rpools {
			rpools[a] = consts
			if trial%3 == 2 {
				// Attribute a draws from at most a+1 values.
				rpools[a] = 1 + rng.Intn(a+1)
			}
			lpools[a] = rpools[a] + 2
		}
		in := model.NewInterner(0)
		left := in.Code(pinRelation(rng, "L", 1+rng.Intn(rows), lpools, nullPct))
		right := in.Code(pinRelation(rng, "R", 1+rng.Intn(rows), rpools, nullPct))
		var idxs []int
		if trial%2 == 1 {
			idxs = []int{}
			for ti := 0; ti < right.Rows(); ti++ {
				if rng.Intn(3) != 0 {
					idxs = append(idxs, ti)
				}
			}
		}
		ref := newMapCodedIndex(right, idxs, in)
		ix := NewCodedIndex(right, idxs, in)
		pr := ix.NewProber()
		for li := 0; li < left.Rows(); li++ {
			row, mask := left.Row(li), left.Masks[li]
			if mask == 0 {
				allNullProbes++
			} else if a, _, _ := ix.term(row, mask); a != bits.TrailingZeros64(mask) {
				laterTerms++
			}
			got := slices.Clone(pr.Candidates(row, mask))
			if want := ref.candidates(row, mask); !slices.Equal(got, want) {
				t.Fatalf("trial %d (arity %d, idxs %v) left row %d %v: candidates %v, want %v",
					trial, arity, idxs, li, row, got, want)
			}
		}
	}
	if laterTerms == 0 || allNullProbes == 0 {
		t.Errorf("inputs too narrow: %d probes chose a term after their first constant, %d probes were all null",
			laterTerms, allNullProbes)
	}
}

// TestCodedIndexLateProbeID probes with a row holding a constant interned
// after the index was built: it is in no bucket, so the probe must behave
// as for any other unseen constant. The only rows the probe reaches share
// its attribute-2 constant and conflict with it on attribute 0, so the
// pairwise check rejects them before it reads the late ID (the build-time
// nullness table does not cover it).
func TestCodedIndexLateProbeID(t *testing.T) {
	in := model.NewInterner(0)
	right := in.Code(buildRel(
		[]model.Value{c("y"), c("b"), c("k")},
		[]model.Value{c("y"), n("V1"), c("k")},
		[]model.Value{c("w"), c("z"), n("V2")},
	))
	ref := newMapCodedIndex(right, nil, in)
	pr := NewCodedIndex(right, nil, in).NewProber()
	built := in.Len()
	probe := in.Code(buildRel([]model.Value{c("z"), c("late"), c("k")}))
	row, mask := probe.Row(0), probe.Masks[0]
	if int(row[1]) < built {
		t.Fatalf("probe ID %d was not interned after the index's values", row[1])
	}
	got := slices.Clone(pr.Candidates(row, mask))
	if want := ref.candidates(row, mask); !slices.Equal(got, want) || len(got) != 0 {
		t.Errorf("late-ID probe candidates = %v, reference %v, want none", got, want)
	}
	// The same prober still answers ordinary probes afterwards.
	row = right.Row(0)
	if got, want := pr.Candidates(row, right.Masks[0]), ref.candidates(row, right.Masks[0]); !slices.Equal(got, want) {
		t.Errorf("probe after late ID = %v, want %v", got, want)
	}
}

// TestCodedIndexLateIDNullTerm probes with a constant interned after the
// index was built, at an attribute where few indexed rows are null: that
// attribute's term, no cells and two null rows, is the cheapest, so the
// pairwise check reads the late ID. One null row unifies with the probe;
// the other repeats its null at both attributes, which would have to equal
// both the late constant and k.
func TestCodedIndexLateIDNullTerm(t *testing.T) {
	in := model.NewInterner(0)
	right := in.Code(buildRel(
		[]model.Value{c("a"), c("k")},
		[]model.Value{c("b"), c("k")},
		[]model.Value{n("V1"), c("k")},
		[]model.Value{n("V2"), n("V2")},
		[]model.Value{c("d"), c("k")},
	))
	ref := newMapCodedIndex(right, nil, in)
	ix := NewCodedIndex(right, nil, in)
	built := in.Len()
	probe := in.Code(buildRel([]model.Value{c("late"), c("k")}))
	row, mask := probe.Row(0), probe.Masks[0]
	if int(row[0]) < built {
		t.Fatalf("probe ID %d was not interned after the index's values", row[0])
	}
	if a, cells, nulls := ix.term(row, mask); a != 0 || len(cells) != 0 || !slices.Equal(nulls, []int32{2, 3}) {
		t.Fatalf("term = attribute %d, cells %v, nulls %v; want attribute 0, no cells, nulls [2 3]", a, cells, nulls)
	}
	got := ix.NewProber().Candidates(row, mask)
	if want := ref.candidates(row, mask); !slices.Equal(got, want) || !slices.Equal(got, []int{2}) {
		t.Errorf("late-ID probe candidates = %v, reference %v, want [2]", got, want)
	}
}
