package compat

import (
	"fmt"
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
	null    []bool
	byConst []map[model.ValueID][]int32
	byMask  map[uint64][]int32
	masks   []uint64
}

func newMapCodedIndex(crel *model.CodedRelation, idxs []int, in *model.Interner) *mapCodedIndex {
	ix := &mapCodedIndex{
		crel:    crel,
		null:    in.NullFlags(),
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
		if compatibleRows(row, ix.crel.Row(int(ti)), ix.null, &uf) {
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

// pinRelation draws a random relation: constants come from one pool shared
// by every attribute (so one ValueID sits in several attributes' buckets),
// nulls from a small per-side pool (so a null repeats within and across
// rows), at a null rate of nullPct percent.
func pinRelation(rng *rand.Rand, side string, rows, arity, consts, nullPct int) *model.Relation {
	r := &model.Relation{Name: "R"}
	for a := 0; a < arity; a++ {
		r.Attrs = append(r.Attrs, fmt.Sprintf("A%d", a))
	}
	nulls := 1 + rows/3
	for i := 0; i < rows; i++ {
		vals := make([]model.Value, arity)
		for a := range vals {
			if rng.Intn(100) < nullPct {
				vals[a] = model.Nullf("%s%d", side, rng.Intn(nulls))
			} else {
				vals[a] = model.Constf("k%d", rng.Intn(consts))
			}
		}
		r.Tuples = append(r.Tuples, model.Tuple{ID: model.TupleID(i), Values: vals})
	}
	return r
}

// TestCodedIndexMatchesMapIndex pins CodedIndex's candidate lists, order
// included, to the map-bucketed reference over random coded relations:
// 1-6 attributes, null rates up to 80%, repeated nulls, constants shared
// across attributes, probe constants the index never saw (the left pool is
// wider), and both a nil and an ascending-subset idxs.
func TestCodedIndexMatchesMapIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		arity := 1 + rng.Intn(6)
		nullPct := []int{0, 20, 50, 80}[trial%4]
		consts := 2 + rng.Intn(6)
		in := model.NewInterner(0)
		left := in.Code(pinRelation(rng, "L", 1+rng.Intn(20), arity, consts+2, nullPct))
		right := in.Code(pinRelation(rng, "R", 1+rng.Intn(20), arity, consts, nullPct))
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
		pr := NewCodedIndex(right, idxs, in).NewProber()
		for li := 0; li < left.Rows(); li++ {
			row, mask := left.Row(li), left.Masks[li]
			got := slices.Clone(pr.Candidates(row, mask))
			if want := ref.candidates(row, mask); !slices.Equal(got, want) {
				t.Fatalf("trial %d (arity %d, idxs %v) left row %d %v: candidates %v, want %v",
					trial, arity, idxs, li, row, got, want)
			}
		}
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
