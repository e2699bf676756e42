package lakeindex

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Entry is one indexed candidate: its name, sketch, and the size of the
// feature set the sketch summarizes (kept for diagnostics and for weighting
// heuristics later; it does not influence retrieval).
type Entry struct {
	Name     string
	Sketch   *Sketch
	Features uint64
}

// Hit is one shortlist member: a candidate name with its estimated Jaccard
// overlap against the query sketch.
type Hit struct {
	Name     string
	Estimate float64
}

// ProbeStats reports how a shortlist was assembled.
type ProbeStats struct {
	// Probed is the number of distinct candidates the banded inverted index
	// returned for the query (before ranking and truncation).
	Probed int
	// Widened reports that banding returned fewer candidates than asked for,
	// so every indexed sketch was estimated instead (an O(n·K) word scan —
	// still far cheaper than n real comparisons).
	Widened bool
}

// Searcher is the retrieval interface lake ranking consumes: the static
// Index and the registry-resident Dynamic both implement it.
type Searcher interface {
	// Shortlist returns up to target candidates ranked by estimated overlap
	// with the query (estimate descending, name ascending on ties).
	// target <= 0 means every indexed candidate.
	Shortlist(q *Sketch, target int) ([]Hit, ProbeStats)
	// Contains reports whether a candidate name is indexed. Lake ranking
	// treats un-indexed candidates as shortlisted unconditionally, so a
	// stale index degrades to extra comparisons, never to lost candidates.
	Contains(name string) bool
}

// ReadFlags records how the indexed instances were read from their source
// (the csvio.ReadOptions that shaped the feature stream). Sketches built
// under different read options describe different feature sets — e.g.
// AnonymousNulls turns empty cells into labeled nulls, which are excluded
// from features — so probing an index with mismatched flags silently
// mis-ranks. The flags are persisted in the index header; queries compare
// them and degrade to a full scan on mismatch.
type ReadFlags uint32

// Read-option flags persisted with an index.
const (
	// FlagAnonymousNulls: instances were read with empty CSV cells turned
	// into fresh labeled nulls.
	FlagAnonymousNulls ReadFlags = 1 << 0
)

func (f ReadFlags) String() string {
	if f&FlagAnonymousNulls != 0 {
		return "anon-nulls"
	}
	return "none"
}

// Index is an immutable sketch index over a fixed candidate set, built once
// (Build) or loaded from a persisted file (ReadFile). It is safe for
// concurrent probing.
type Index struct {
	// entries are sorted by name; byName maps a name to its position.
	entries []Entry
	byName  map[string]int32
	// buckets is the inverted index: band bucket key → positions of the
	// entries whose sketch falls in that bucket, in entry order.
	buckets map[uint64][]int32
	// flags records the read options the indexed instances were loaded
	// under; persisted and round-tripped by Write/Read.
	flags ReadFlags
}

// WithFlags returns a copy of the index recording the read options the
// indexed instances were loaded under; the receiver is unchanged. Derive
// the flagged index before WriteFile so queries can detect a mismatch.
// (A published Index is immutable — internal/lint/immutpub — so the flags
// travel by construction, never by post-publish mutation.)
func (ix *Index) WithFlags(f ReadFlags) *Index {
	out := *ix
	out.flags = f
	return &out
}

// Flags returns the read options recorded at build time.
func (ix *Index) Flags() ReadFlags { return ix.flags }

// Build constructs an index over the entries. Entry names must be distinct
// and non-empty; sketches must be non-nil.
func Build(entries []Entry) (*Index, error) {
	es := append([]Entry(nil), entries...)
	sort.Slice(es, func(i, j int) bool { return es[i].Name < es[j].Name })
	ix := &Index{
		entries: es,
		byName:  make(map[string]int32, len(es)),
		buckets: make(map[uint64][]int32),
	}
	for i, e := range es {
		if e.Name == "" {
			return nil, fmt.Errorf("lakeindex: entry %d has an empty name", i)
		}
		if e.Sketch == nil {
			return nil, fmt.Errorf("lakeindex: entry %q has no sketch", e.Name)
		}
		if _, dup := ix.byName[e.Name]; dup {
			return nil, fmt.Errorf("lakeindex: duplicate entry %q", e.Name)
		}
		ix.byName[e.Name] = int32(i)
		for _, key := range e.Sketch.BandKeys() {
			ix.buckets[key] = append(ix.buckets[key], int32(i))
		}
	}
	return ix, nil
}

// Len returns the number of indexed candidates.
func (ix *Index) Len() int { return len(ix.entries) }

// Names returns the indexed candidate names in sorted order.
func (ix *Index) Names() []string {
	out := make([]string, len(ix.entries))
	for i, e := range ix.entries {
		out[i] = e.Name
	}
	return out
}

// Contains reports whether the name is indexed.
func (ix *Index) Contains(name string) bool {
	_, ok := ix.byName[name]
	return ok
}

// Entry returns the indexed entry for a name.
func (ix *Index) Entry(name string) (Entry, bool) {
	i, ok := ix.byName[name]
	if !ok {
		return Entry{}, false
	}
	return ix.entries[i], true
}

// Shortlist implements Searcher over the fixed candidate set.
func (ix *Index) Shortlist(q *Sketch, target int) ([]Hit, ProbeStats) {
	return shortlist(q, target, ix.entries, ix.buckets)
}

// shortlist is the one probe both Index and Dynamic run over their shared
// positional layout (entries plus a band bucket → positions inverted index):
// probe the banded buckets, widen to a full sketch scan if banding
// under-delivers, rank by estimate, truncate. Candidate order inside the
// probe never reaches the output: compareHits is a total order over
// distinct names.
//
// Ranking selects before it sorts. An estimate is eq/K for an integer
// agreement count eq in [0, K], so a histogram of the counts gives the
// cut-off count of the target-th hit in one pass; only the hits at or above
// it (ties included) are materialized and sorted. Every hit below the
// cut-off ranks behind at least target others, so the truncated survivors
// are exactly the prefix a full sort would keep.
func shortlist(q *Sketch, target int, entries []Entry, buckets map[uint64][]int32) ([]Hit, ProbeStats) {
	if target <= 0 || target > len(entries) {
		target = len(entries)
	}
	var st ProbeStats
	// Band probe: every candidate sharing at least one band bucket with the
	// query. seen is positional, so dedup needs no map.
	seen := make([]bool, len(entries))
	cands := make([]int32, 0, 2*target)
	for _, key := range q.BandKeys() {
		for _, i := range buckets[key] {
			if !seen[i] {
				seen[i] = true
				cands = append(cands, i)
			}
		}
	}
	st.Probed = len(cands)
	if len(cands) < target {
		// Banding found too few: estimate everything. The probe set is a
		// subset of "everything", so this strictly widens the shortlist.
		st.Widened = true
		cands = cands[:0]
		for i := range entries {
			cands = append(cands, int32(i))
		}
	}
	// len(cands) >= target here, so the cut-off scan below stops at a
	// count whose hits number at least target.
	eqs := make([]uint8, len(cands))
	var hist [K + 1]int
	for k, i := range cands {
		eq := q.agree(entries[i].Sketch)
		eqs[k] = uint8(eq)
		hist[eq]++
	}
	cut, kept := K, hist[K]
	for kept < target && cut > 0 {
		cut--
		kept += hist[cut]
	}
	hits := make([]Hit, 0, kept)
	for k, i := range cands {
		if int(eqs[k]) >= cut {
			hits = append(hits, Hit{Name: entries[i].Name, Estimate: float64(eqs[k]) / K})
		}
	}
	slices.SortFunc(hits, compareHits)
	if len(hits) > target {
		hits = hits[:target]
	}
	return hits, st
}

// compareHits orders hits by estimate descending, name ascending — the
// total deterministic order every retrieval path shares.
func compareHits(a, b Hit) int {
	if c := cmp.Compare(b.Estimate, a.Estimate); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}
