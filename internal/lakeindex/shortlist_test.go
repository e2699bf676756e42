package lakeindex

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// referenceShortlist is the sort-everything probe: estimate every probed
// candidate, sort all of them by (estimate desc, name asc), truncate. The
// selecting shortlist must return exactly its output.
func referenceShortlist(q *Sketch, target int, entries []Entry, buckets map[uint64][]int32) ([]Hit, ProbeStats) {
	if target <= 0 || target > len(entries) {
		target = len(entries)
	}
	var st ProbeStats
	seen := make([]bool, len(entries))
	var cands []int32
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
		st.Widened = true
		cands = cands[:0]
		for i := range entries {
			cands = append(cands, int32(i))
		}
	}
	hits := make([]Hit, 0, len(cands))
	for _, i := range cands {
		e := &entries[i]
		hits = append(hits, Hit{Name: e.Name, Estimate: referenceEstimate(q, e.Sketch)})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Estimate != hits[j].Estimate {
			return hits[i].Estimate > hits[j].Estimate
		}
		return hits[i].Name < hits[j].Name
	})
	if len(hits) > target {
		hits = hits[:target]
	}
	return hits, st
}

// referenceEstimate is the plain counting loop Estimate must agree with.
func referenceEstimate(s, t *Sketch) float64 {
	eq := 0
	for i := range s.vals {
		if s.vals[i] == t.vals[i] {
			eq++
		}
	}
	return float64(eq) / K
}

// agreeingSketch returns a sketch that equals q on exactly eq randomly
// chosen components and holds fresh random values elsewhere, so its
// estimate against q is eq/K.
func agreeingSketch(q *Sketch, eq int, rng *rand.Rand) *Sketch {
	s := &Sketch{}
	for i := range s.vals {
		s.vals[i] = rng.Uint64()
	}
	for _, i := range rng.Perm(K)[:eq] {
		s.vals[i] = q.vals[i]
	}
	return s
}

// tieLake builds n entries whose agreement with q comes from a few coarse
// levels, so many candidates tie on every estimate: high levels band with q
// almost surely, low ones almost never.
func tieLake(q *Sketch, n int, rng *rand.Rand) []Entry {
	levels := []int{K, 100, 80, 64, 48, 40, 24, 8, 0}
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{
			Name:   "e" + strconv.Itoa(rng.Intn(10*n+1)) + "-" + strconv.Itoa(i),
			Sketch: agreeingSketch(q, levels[rng.Intn(len(levels))], rng),
		}
	}
	return entries
}

func TestShortlistMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, n := range []int{1, 2, 7, 40, 300} {
		for trial := 0; trial < 4; trial++ {
			q := agreeingSketch(&Sketch{}, 0, rng)
			entries := tieLake(q, n, rng)
			ix, err := Build(entries)
			if err != nil {
				t.Fatal(err)
			}
			d := NewDynamic()
			for _, i := range rng.Perm(len(entries)) {
				d.Add(entries[i].Name, entries[i].Sketch)
			}
			_, probe := referenceShortlist(q, 1, ix.entries, ix.buckets)

			// Targets: the edges, the probed count on both sides (banded
			// and widened), and for every estimate level the exact count
			// at or above it plus one target cutting into its ties.
			targets := []int{0, -1, 1, 2, 3, probe.Probed - 1, probe.Probed, probe.Probed + 1, n - 1, n, n + 3}
			all, _ := referenceShortlist(q, 0, ix.entries, ix.buckets)
			for i := 1; i < len(all); i++ {
				if all[i].Estimate != all[i-1].Estimate {
					targets = append(targets, i, i+1)
				}
			}

			for _, target := range targets {
				want, wantSt := referenceShortlist(q, target, ix.entries, ix.buckets)
				for _, side := range []struct {
					name    string
					entries []Entry
					buckets map[uint64][]int32
				}{{"index", ix.entries, ix.buckets}, {"dynamic", d.entries, d.buckets}} {
					have, haveSt := shortlist(q, target, side.entries, side.buckets)
					if haveSt != wantSt {
						t.Errorf("n=%d trial %d %s target %d: stats %+v, want %+v", n, trial, side.name, target, haveSt, wantSt)
					}
					if len(have) != len(want) {
						t.Fatalf("n=%d trial %d %s target %d: %d hits, want %d", n, trial, side.name, target, len(have), len(want))
					}
					for i := range want {
						if have[i].Name != want[i].Name || math.Float64bits(have[i].Estimate) != math.Float64bits(want[i].Estimate) {
							t.Fatalf("n=%d trial %d %s target %d: hit %d = %+v, want %+v", n, trial, side.name, target, i, have[i], want[i])
						}
					}
				}
			}
			for _, e := range entries {
				if have, want := q.Estimate(e.Sketch), referenceEstimate(q, e.Sketch); math.Float64bits(have) != math.Float64bits(want) {
					t.Fatalf("Estimate(%s) = %v, want %v", e.Name, have, want)
				}
			}
		}
	}
}

// BenchmarkShortlist probes a 2,000-entry index for a 64-entry shortlist,
// with agreement levels drawn so banding returns about 900 candidates — the
// shape of one indexed query against a resident lake.
func BenchmarkShortlist(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := agreeingSketch(&Sketch{}, 0, rng)
	entries := make([]Entry, 2000)
	for i := range entries {
		entries[i] = Entry{
			Name:   "cand-" + strconv.Itoa(i),
			Sketch: agreeingSketch(q, rng.Intn(88), rng),
		}
	}
	ix, err := Build(entries)
	if err != nil {
		b.Fatal(err)
	}
	_, st := ix.Shortlist(q, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHits, _ = ix.Shortlist(q, 64)
	}
	b.ReportMetric(float64(st.Probed), "probed")
}

// benchHits keeps BenchmarkShortlist's result live.
var benchHits []Hit
