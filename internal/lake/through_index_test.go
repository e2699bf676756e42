package lake

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"instcmp"
	"instcmp/internal/lakeindex"
)

// referenceRankThroughIndex is the map-and-sort shortlist decision: a
// lake-wide membership map, a shortlisted-name map, every pruned name
// materialized as a Result, and one stable sort over compared ++ pruned.
// RankThroughIndex must return exactly its results and stats.
func referenceRankThroughIndex(names []string, idx lakeindex.Searcher, query func() (*lakeindex.Sketch, error), opt Options, rank func(short []int) ([]Result, error)) ([]Result, IndexStats, error) {
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
		all := make([]int, len(names))
		for i := range all {
			all[i] = i
		}
		res, err := rank(all)
		return res, st, err
	}
	q, err := query()
	if err != nil {
		return nil, st, err
	}
	inLake := make(map[string]bool, len(names))
	for _, name := range names {
		inLake[name] = true
	}
	var hits []lakeindex.Hit
	var ps lakeindex.ProbeStats
	for probeTarget := target; ; probeTarget *= 2 {
		hits, ps = idx.Shortlist(q, probeTarget)
		members := 0
		for _, h := range hits {
			if inLake[h.Name] {
				members++
			}
		}
		if members >= target || len(hits) < probeTarget {
			break
		}
	}
	st.Probed = ps.Probed
	st.Widened = ps.Widened
	shortlisted := make(map[string]bool, target)
	for _, h := range hits {
		if inLake[h.Name] {
			shortlisted[h.Name] = true
			if len(shortlisted) >= target {
				break
			}
		}
	}
	short := make([]int, 0, target)
	rest := make([]Result, 0, len(names)-len(shortlisted))
	for i, name := range names {
		switch {
		case shortlisted[name]:
			short = append(short, i)
		case !idx.Contains(name):
			st.Unindexed++
			short = append(short, i)
		default:
			rest = append(rest, Result{Name: name, Pruned: true})
		}
	}
	st.ShortlistSize = len(short)
	out, err := rank(short)
	if err != nil {
		return nil, st, err
	}
	out = append(out, rest...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if da, db := a.Pruned || a.TimedOut, b.Pruned || b.TimedOut; da != db {
			return !da
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Overlap != b.Overlap {
			return a.Overlap > b.Overlap
		}
		return a.Name < b.Name
	})
	return out, st, nil
}

// fakeIndex is a Searcher over fixed hits: Shortlist returns the first
// target of them in the retrieval order (estimate desc, name asc), so the
// test controls exactly which names rank where, inside and outside the lake.
type fakeIndex struct {
	hits   []lakeindex.Hit
	probed int
	probes int
}

func newFakeIndex(hits []lakeindex.Hit, probed int) *fakeIndex {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Estimate != hits[j].Estimate {
			return hits[i].Estimate > hits[j].Estimate
		}
		return hits[i].Name < hits[j].Name
	})
	return &fakeIndex{hits: hits, probed: probed}
}

func (f *fakeIndex) Shortlist(_ *lakeindex.Sketch, target int) ([]lakeindex.Hit, lakeindex.ProbeStats) {
	f.probes++
	if target <= 0 || target > len(f.hits) {
		target = len(f.hits)
	}
	return append([]lakeindex.Hit(nil), f.hits[:target]...),
		lakeindex.ProbeStats{Probed: f.probed, Widened: f.probed < target}
}

func (f *fakeIndex) Contains(name string) bool {
	for _, h := range f.hits {
		if h.Name == name {
			return true
		}
	}
	return false
}

// fakeRank compares the shortlisted names without comparing anything: each
// name's outcome is a function of its hash — ranked (scores and overlaps
// drawn from a few levels, so they tie), timed out, overlap-pruned, or a
// ranked zero that ties an index-pruned candidate on everything but the
// degraded flag — and the results come back in a scrambled order. One extra
// result reports the first name left out of short as pruned, with stats: it
// ties that name's index-pruned result on every ranking key, and the stable
// sort puts the compared one first.
func fakeRank(names []string) func(short []int) ([]Result, error) {
	levels := []float64{0, 0.25, 0.5, 0.5, 0.75, 1}
	return func(short []int) ([]Result, error) {
		out := make([]Result, 0, len(short)+1)
		for i, k := 0, 0; i < len(names); i++ {
			if k < len(short) && short[k] == i {
				k++
				continue
			}
			out = append(out, Result{Name: names[i], Pruned: true, Stats: &instcmp.ComparisonStats{}})
			break
		}
		for _, i := range short {
			h := fnv.New64a()
			h.Write([]byte(names[i]))
			v := h.Sum64()
			r := Result{Name: names[i], Overlap: levels[v%6]}
			switch (v / 6) % 6 {
			case 0, 1, 2:
				r.Score = levels[(v/36)%6]
			case 3:
				r.TimedOut = true
			case 4:
				r.Pruned = true
			case 5:
				r.Overlap = 0
			}
			out = append(out, r)
		}
		rand.New(rand.NewSource(int64(len(short)))).Shuffle(len(out), func(i, j int) {
			out[i], out[j] = out[j], out[i]
		})
		return out, nil
	}
}

// rankCase is one generated lake: names (possibly shuffled, possibly with
// duplicates), an index over part of the lake plus names outside it, and
// the ranking options.
type rankCase struct {
	names []string
	hits  []lakeindex.Hit
	opt   Options
}

func randomRankCase(rng *rand.Rand) rankCase {
	var c rankCase
	n := rng.Intn(90)
	for i := 0; i < n; i++ {
		c.names = append(c.names, fmt.Sprintf("d%03d", i))
	}
	if rng.Intn(2) == 0 {
		rng.Shuffle(n, func(i, j int) { c.names[i], c.names[j] = c.names[j], c.names[i] })
	}
	if n > 0 && rng.Intn(3) == 0 {
		for k := rng.Intn(6); k >= 0; k-- {
			at := rng.Intn(len(c.names) + 1)
			dup := c.names[rng.Intn(n)]
			c.names = append(c.names[:at], append([]string{dup}, c.names[at:]...)...)
		}
	}
	estimate := func() float64 { return float64(rng.Intn(9)) / 8 }
	indexed := 0.5 + 0.5*rng.Float64()
	for i := 0; i < n; i++ {
		if rng.Float64() < indexed {
			c.hits = append(c.hits, lakeindex.Hit{Name: fmt.Sprintf("d%03d", i), Estimate: estimate()})
		}
	}
	for i := rng.Intn(50); i > 0; i-- {
		c.hits = append(c.hits, lakeindex.Hit{Name: fmt.Sprintf("x%03d", i), Estimate: estimate()})
	}
	c.opt = Options{TopK: 1 + rng.Intn(3), MinShortlist: []int{0, 4, 9, 16}[rng.Intn(4)]}
	return c
}

// checkSameRanking runs the case through RankThroughIndex and the
// reference and requires identical results (score and overlap bits
// included) and stats; it returns the number of probes RankThroughIndex
// made.
func checkSameRanking(t *testing.T, label string, c rankCase) int {
	t.Helper()
	query := func() (*lakeindex.Sketch, error) { return lakeindex.NewSketch(nil), nil }
	probed := len(c.hits) / 2
	wantIdx := newFakeIndex(append([]lakeindex.Hit(nil), c.hits...), probed)
	want, wantSt, wantErr := referenceRankThroughIndex(c.names, wantIdx, query, c.opt, fakeRank(c.names))
	haveIdx := newFakeIndex(append([]lakeindex.Hit(nil), c.hits...), probed)
	have, haveSt, haveErr := RankThroughIndex(c.names, haveIdx, query, c.opt, fakeRank(c.names))
	if (wantErr == nil) != (haveErr == nil) {
		t.Fatalf("%s: error %v, want %v", label, haveErr, wantErr)
	}
	wantSt.SketchBuild, haveSt.SketchBuild = 0, 0
	if haveSt != wantSt {
		t.Errorf("%s: stats %+v, want %+v", label, haveSt, wantSt)
	}
	if haveIdx.probes != wantIdx.probes {
		t.Errorf("%s: %d probes, want %d", label, haveIdx.probes, wantIdx.probes)
	}
	if len(have) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(have), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(have[i], want[i]) ||
			math.Float64bits(have[i].Score) != math.Float64bits(want[i].Score) ||
			math.Float64bits(have[i].Overlap) != math.Float64bits(want[i].Overlap) {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, have[i], want[i])
		}
	}
	return haveIdx.probes
}

func TestRankThroughIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 400; trial++ {
		checkSameRanking(t, fmt.Sprintf("trial %d", trial), randomRankCase(rng))
	}

	// Pinned shapes. names is sorted; target is max(4*1, 9) = 9.
	var names []string
	for i := 0; i < 40; i++ {
		names = append(names, fmt.Sprintf("d%03d", i))
	}
	opt := Options{TopK: 1, MinShortlist: 9}
	lakeHits := func(from, to int, est float64) []lakeindex.Hit {
		var hits []lakeindex.Hit
		for i := from; i < to; i++ {
			hits = append(hits, lakeindex.Hit{Name: fmt.Sprintf("d%03d", i), Estimate: est})
		}
		return hits
	}

	// Twenty outsiders outrank every lake member: the first probe (9)
	// and the second (18) retrieve no member, the third (36) retrieves 16.
	var outsiders []lakeindex.Hit
	for i := 0; i < 20; i++ {
		outsiders = append(outsiders, lakeindex.Hit{Name: fmt.Sprintf("x%03d", i), Estimate: 1})
	}
	reprobe := rankCase{names: names, hits: append(outsiders, lakeHits(0, 40, 0.5)...), opt: opt}
	if probes := checkSameRanking(t, "re-probe", reprobe); probes != 3 {
		t.Errorf("re-probe: %d probes, want 3", probes)
	}

	// Half the lake unindexed, the other half indexed with ties at the
	// shortlist cut-off, and a duplicated name on each side of it.
	dups := append(append([]string(nil), names...), "d003", "d030", "d030")
	mixed := rankCase{names: dups, hits: append(lakeHits(0, 12, 0.75), lakeHits(30, 40, 0.25)...), opt: opt}
	checkSameRanking(t, "unindexed and duplicates", mixed)

	// The same lake shuffled, and the full-scan fallbacks.
	shuffled := append([]string(nil), dups...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	checkSameRanking(t, "shuffled", rankCase{names: shuffled, hits: mixed.hits, opt: opt})
	checkSameRanking(t, "lake fits the shortlist", rankCase{names: names[:9], hits: lakeHits(0, 9, 1), opt: opt})

	// A rank error surfaces from both.
	boom := errors.New("boom")
	fail := func([]int) ([]Result, error) { return nil, boom }
	query := func() (*lakeindex.Sketch, error) { return lakeindex.NewSketch(nil), nil }
	if _, _, err := RankThroughIndex(names, newFakeIndex(lakeHits(0, 40, 1), 40), query, opt, fail); !errors.Is(err, boom) {
		t.Errorf("rank error: got %v", err)
	}
}
