package lake

// This file implements sketch-indexed ranking: instead of running a full
// signature comparison against every candidate (RankPreparedContext's full
// scan), the example is sketched once, the lake's sketch index is probed for
// a shortlist of max(4*TopK, MinShortlist) likely candidates, and only the
// shortlist receives real comparisons. Candidates outside the shortlist are
// reported Pruned with score 0, exactly like prefilter-pruned candidates.
// The full scan remains both the fallback (nil index, tiny lake) and the
// oracle the recall tests hold the indexed ranking to.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"instcmp"
	"instcmp/internal/lakeindex"
)

// IndexStats reports how an indexed ranking used the sketch index; it is
// the ranking-level companion of the per-candidate Result.Stats. The same
// quantities feed the cumulative expvar counters under "instcmp.lake"
// (index_probes, index_probed_candidates, shortlist_size, index_widened,
// full_scan_fallbacks, sketch_build_ns), so a service degrading to full
// scans is observable without touching per-request stats.
type IndexStats struct {
	// FullScan reports that the ranking fell back to comparing every
	// candidate (nil index, or a lake no larger than the shortlist).
	FullScan bool
	// Probed is the number of distinct candidates the banded inverted index
	// returned before ranking and truncation.
	Probed int
	// Widened reports that band probing under-delivered and every indexed
	// sketch was estimated instead.
	Widened bool
	// ShortlistSize is the number of candidates that received a real
	// comparison.
	ShortlistSize int
	// Unindexed counts lake candidates missing from the index; they are
	// force-shortlisted (a stale index must cost comparisons, not recall).
	Unindexed int
	// SketchBuild is the time spent sketching the example.
	SketchBuild time.Duration
}

// RankIndexedContext ranks a prepared lake through a sketch index. The
// result ordering follows the same deterministic comparator as every other
// ranking path (score desc, overlap desc, name asc; degraded candidates
// last), so whenever the true top-K candidates land in the shortlist — which
// the recall tests pin on generated lakes — the top of an indexed ranking is
// identical to the full-scan oracle's at a fraction of the comparisons.
//
// Index-pruned candidates report Pruned = true with score and overlap 0:
// their overlap was never measured (that is the point of the index). A nil
// index, or a lake that does not outnumber the shortlist, degrades to
// RankPreparedContext transparently (IndexStats.FullScan).
func RankIndexedContext(ctx context.Context, example *instcmp.Prepared, lake []PreparedCandidate, idx lakeindex.Searcher, opt Options) ([]Result, IndexStats, error) {
	names := make([]string, len(lake))
	for i, cand := range lake {
		names[i] = cand.Name
	}
	query := func() (*lakeindex.Sketch, error) {
		if example == nil {
			return nil, fmt.Errorf("lake: RankIndexed requires a non-nil prepared example")
		}
		return lakeindex.NewSketch(example.SketchFeatures()), nil
	}
	return RankThroughIndex(names, idx, query, opt, func(short []int) ([]Result, error) {
		cands := make([]PreparedCandidate, len(short))
		for k, i := range short {
			cands[k] = lake[i]
		}
		return RankPreparedContext(ctx, example, cands, opt)
	})
}

// RankThroughIndex is the one shortlist decision of every indexed ranking:
// RankIndexedContext runs it over a resident prepared lake, and cmd/lakefind
// over a lake directory whose datasets it loads only once shortlisted.
//
// names lists the lake's candidates. The shortlist is max(4*TopK,
// MinShortlist) of them; a nil idx, or a lake no larger than that, compares
// every candidate instead (IndexStats.FullScan). Otherwise query sketches
// the example, idx is probed, and candidates the index has never seen are
// shortlisted unconditionally. rank compares the shortlisted candidates —
// short holds positions in names, in names order — and returns them ranked;
// the rest are merged in as Pruned with score and overlap 0, in the shared
// ranking order.
func RankThroughIndex(names []string, idx lakeindex.Searcher, query func() (*lakeindex.Sketch, error), opt Options, rank func(short []int) ([]Result, error)) ([]Result, IndexStats, error) {
	var st IndexStats
	if err := opt.validate(); err != nil {
		return nil, st, err
	}
	topK := opt.TopK
	if topK <= 0 {
		topK = DefaultTopK
	}
	minShort := opt.MinShortlist
	if minShort <= 0 {
		minShort = DefaultMinShortlist
	}
	target := max(4*topK, minShort)
	if idx == nil || len(names) <= target {
		st.FullScan = true
		st.ShortlistSize = len(names)
		vars.Add("full_scan_fallbacks", 1)
		all := make([]int, len(names))
		for i := range all {
			all[i] = i
		}
		res, err := rank(all)
		return res, st, err
	}

	//instlint:allow nondet -- stopwatch feeds IndexedStats.SketchBuild, a human-facing duration, never a score or ranking input
	start := time.Now()
	q, err := query()
	if err != nil {
		return nil, st, err
	}
	st.SketchBuild = time.Since(start)

	// The index may cover names outside this lake (a registry indexes every
	// registered instance, including the example itself; a persisted index
	// still lists deleted datasets), and those hits would silently shrink
	// the shortlist below target. Re-probe with a doubled target until
	// target lake members are retrieved or the index is exhausted (a probe
	// returning fewer hits than asked for has seen everything).
	//
	// Lake membership is only ever asked of the hits, so each probe indexes
	// its hits by name and looks every lake name up once: at[i] is the
	// position of names[i] among the hits, or -1, and member marks the hits
	// the lake holds. No lake-sized map is built.
	at := make([]int32, len(names))
	var member []bool
	var ps lakeindex.ProbeStats
	//instlint:allow ctxpoll -- at most log(index size) probes, each a bounded sketch scan costing microseconds; the comparisons that follow poll ctx
	for probeTarget := target; ; probeTarget *= 2 {
		var hits []lakeindex.Hit
		hits, ps = idx.Shortlist(q, probeTarget)
		hitAt := make(map[string]int32, len(hits))
		for k, h := range hits {
			hitAt[h.Name] = int32(k)
		}
		member = make([]bool, len(hits))
		members := 0
		for i, name := range names {
			k, ok := hitAt[name]
			if !ok {
				at[i] = -1
				continue
			}
			at[i] = k
			if !member[k] {
				member[k] = true
				members++
			}
		}
		if members >= target || len(hits) < probeTarget {
			break
		}
	}
	st.Probed = ps.Probed
	st.Widened = ps.Widened

	// Shortlist the best target lake members, in hit (estimate) order:
	// member keeps its mark on those and drops it on the members past
	// target.
	chosen := 0
	for k, in := range member {
		if in {
			if chosen < target {
				chosen++
			} else {
				member[k] = false
			}
		}
	}
	// One pass over the lake classifies every name. Only names the probe
	// did not return can be unindexed, so only they cost a Contains.
	short := make([]int, 0, target)
	pruned := make([]int32, 0, len(names)-chosen)
	for i, name := range names {
		switch k := at[i]; {
		case k >= 0 && member[k]:
			short = append(short, i)
		case k < 0 && !idx.Contains(name):
			// The index has never seen this candidate (it was added after
			// the index was built): shortlist it unconditionally rather
			// than dropping it on evidence the index does not have.
			st.Unindexed++
			short = append(short, i)
		default:
			pruned = append(pruned, int32(i))
		}
	}
	st.ShortlistSize = len(short)

	ranked, err := rank(short)
	if err != nil {
		return nil, st, err
	}
	out := mergePruned(ranked, names, pruned)

	vars.Add("index_probes", 1)
	vars.Add("index_probed_candidates", int64(st.Probed))
	vars.Add("shortlist_size", int64(st.ShortlistSize))
	if st.Widened {
		vars.Add("index_widened", 1)
	}
	vars.Add("sketch_build_ns", int64(st.SketchBuild))
	return out, st, nil
}

// mergePruned returns the compared results and the index-pruned names in
// the shared ranking order, in one allocation. The index-pruned results are
// alike but for their names (degraded, score and overlap 0), so putting
// them in name order sorts them; merging them into the sorted compared
// results, a compared result first on ties, gives exactly the order a
// stable sort of compared ++ pruned would.
func mergePruned(ranked []Result, names []string, pruned []int32) []Result {
	sortResults(ranked)
	byName := func(a, b int32) int { return strings.Compare(names[a], names[b]) }
	if !slices.IsSortedFunc(pruned, byName) {
		slices.SortStableFunc(pruned, byName)
	}
	out := make([]Result, 0, len(ranked)+len(pruned))
	for len(pruned) > 0 {
		r := Result{Name: names[pruned[0]], Pruned: true}
		if len(ranked) > 0 && !resultLess(&r, &ranked[0]) {
			out = append(out, ranked[0])
			ranked = ranked[1:]
		} else {
			out = append(out, r)
			pruned = pruned[1:]
		}
	}
	return append(out, ranked...)
}

// BuildIndex sketches every candidate of a prepared lake and builds the
// static index over them — the one-stop constructor lakefind and tests use.
func BuildIndex(lake []PreparedCandidate) (*lakeindex.Index, error) {
	entries := make([]lakeindex.Entry, 0, len(lake))
	for _, cand := range lake {
		if cand.Prepared == nil {
			return nil, fmt.Errorf("lake: candidate %q has no prepared instance", cand.Name)
		}
		feats := cand.Prepared.SketchFeatures()
		entries = append(entries, lakeindex.Entry{
			Name:     cand.Name,
			Sketch:   lakeindex.NewSketch(feats),
			Features: uint64(len(feats)),
		})
	}
	return lakeindex.Build(entries)
}
