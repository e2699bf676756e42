// Package schemamap discovers attribute mappings between two instances
// whose schemas have drifted apart: renamed columns, reordered columns,
// dropped columns, renamed relations. The engine proper (internal/match)
// requires both sides to share attribute names and order; the paper's
// Sec. 4 alignment recipe only covers *missing* attributes. This package
// closes the gap with a pre-matching phase: profile every column
// (uniqueness ratio under labeled nulls, null share, type hints, a MinHash
// sketch of the value set reusing internal/lakeindex's splitmix64 sketch
// machinery), anchor a mapping on mutually-best distinctive columns (the
// fast path — a column that stays near-unique even under nulls is an
// approximate key in the sense of Alatar & Sali and the most trustworthy
// anchor), and resolve the remaining columns with a Hungarian-style
// assignment on profile similarity. The discovered mapping rewrites the
// right instance into the left schema's spelling so the existing engine
// runs unchanged, and carries a confidence the caller can fold into
// results and explanations.
//
// Everything here is deterministic: profiles scan rows in schema order,
// candidate loops run over index ranges, the assignment solver breaks ties
// by index, and sketches are order-insensitive folds. Equal inputs always
// discover equal mappings.
package schemamap

import (
	"strconv"
	"strings"

	"instcmp/internal/lakeindex"
	"instcmp/internal/model"
)

// ColumnProfile summarizes one attribute of one relation: the statistics
// the mapping search compares columns by.
type ColumnProfile struct {
	// Attr is the attribute name; Index its position in the relation.
	Attr  string
	Index int
	// Rows is the relation's cardinality, NonNull the number of constant
	// cells in this column, Distinct the number of distinct constants.
	Rows, NonNull, Distinct int
	// Uniqueness is Distinct/NonNull — the approximate-key signal: a
	// column that stays near 1 even with nulls present identifies rows.
	// It is 0 for a fully-null (or empty) column.
	Uniqueness float64
	// NullShare is the fraction of cells that are labeled nulls.
	NullShare float64
	// NumericShare is the fraction of non-null cells parsing as numbers
	// (a cheap type hint).
	NumericShare float64
	// AvgLen is the mean byte length of the constant cells.
	AvgLen float64
	// Sketch is a MinHash sketch of the column's distinct constant
	// hashes; Estimate between two columns approximates the Jaccard
	// similarity of their value sets.
	Sketch *lakeindex.Sketch
}

// RelationProfile holds one relation's column profiles plus a
// relation-level sketch over the union of its columns' values, used to
// pair renamed relations.
type RelationProfile struct {
	Name  string
	Index int
	Cols  []ColumnProfile
	// Sketch summarizes every distinct constant in the relation.
	Sketch *lakeindex.Sketch
}

// maxSketchFeatures caps the distinct values folded into one column (or
// relation) sketch, bounding profiling at O(cap·K) hash work per column on
// huge instances. Distinct counting (and so uniqueness) is never capped —
// only the sketch degrades to a first-seen sample, which still estimates
// value overlap well enough to rank candidate columns.
const maxSketchFeatures = 1 << 12

// ProfileInstance profiles every relation of the instance in schema order.
func ProfileInstance(in *model.Instance) []RelationProfile {
	rels := in.Relations()
	out := make([]RelationProfile, len(rels))
	for ri, rel := range rels {
		out[ri] = profileRelation(rel, ri)
	}
	return out
}

// profileRelation computes per-column statistics in one pass over the
// relation's rows. Distinct-value hashes are collected in first-seen order
// (a slice guarded by a set), so no step depends on map iteration order.
func profileRelation(rel *model.Relation, ri int) RelationProfile {
	arity := rel.Arity()
	rp := RelationProfile{Name: rel.Name, Index: ri, Cols: make([]ColumnProfile, arity)}
	seen := make([]map[uint64]bool, arity)
	feats := make([][]uint64, arity)
	var relSeen map[uint64]bool
	var relFeats []uint64
	relSeen = make(map[uint64]bool)
	lenSum := make([]int, arity)
	numeric := make([]int, arity)
	for a := 0; a < arity; a++ {
		rp.Cols[a] = ColumnProfile{Attr: rel.Attrs[a], Index: a, Rows: len(rel.Tuples)}
		seen[a] = make(map[uint64]bool)
	}
	for ti := range rel.Tuples {
		vals := rel.Tuples[ti].Values
		for a, v := range vals {
			c := &rp.Cols[a]
			if v.IsNull() {
				continue
			}
			c.NonNull++
			raw := v.Raw()
			lenSum[a] += len(raw)
			if isNumeric(raw) {
				numeric[a]++
			}
			h := model.ValueHash(v)
			if !seen[a][h] {
				seen[a][h] = true
				if len(feats[a]) < maxSketchFeatures {
					feats[a] = append(feats[a], h)
				}
			}
			if !relSeen[h] {
				relSeen[h] = true
				if len(relFeats) < maxSketchFeatures {
					relFeats = append(relFeats, h)
				}
			}
		}
	}
	for a := 0; a < arity; a++ {
		c := &rp.Cols[a]
		c.Distinct = len(seen[a])
		if c.Rows > 0 {
			c.NullShare = float64(c.Rows-c.NonNull) / float64(c.Rows)
		}
		if c.NonNull > 0 {
			c.Uniqueness = float64(c.Distinct) / float64(c.NonNull)
			c.NumericShare = float64(numeric[a]) / float64(c.NonNull)
			c.AvgLen = float64(lenSum[a]) / float64(c.NonNull)
		}
		c.Sketch = lakeindex.NewSketch(feats[a])
	}
	rp.Sketch = lakeindex.NewSketch(relFeats)
	return rp
}

// isNumeric reports whether a constant's text parses as a number after
// trimming surrounding space. ParseFloat rejects every text that does not
// start with a sign, a digit, a dot or the first letter of "inf" or "nan",
// so such text is rejected before ParseFloat builds an error for it.
func isNumeric(s string) bool {
	s = strings.TrimSpace(s)
	if s == "" || strings.IndexByte("+-.0123456789iInN", s[0]) < 0 {
		return false
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}
