package lake

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"instcmp"
	"instcmp/internal/datasets"
	"instcmp/internal/generator"
	"instcmp/internal/versioning"
)

// buildLake assembles a lake of candidates around one base table: a near
// copy (light noise), a distant version (heavy noise), a shuffled clone, an
// unrelated dataset, and a schema-modified version.
func buildLake(t *testing.T) (*instcmp.Instance, []Candidate) {
	t.Helper()
	base := datasets.IrisData(100, rand.New(rand.NewSource(4)))

	near := generator.Make(base, generator.Noise{CellPct: 0.02, Seed: 1}).Target
	far := generator.Make(base, generator.Noise{CellPct: 0.40, Seed: 2}).Target
	clone, err := versioning.MakeVariant(base, versioning.Shuffled, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := versioning.MakeVariant(base, versioning.ColumnsRemoved, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	unrelated := datasets.NbaData(100, rand.New(rand.NewSource(5)))

	return base, []Candidate{
		{Name: "unrelated", Instance: unrelated},
		{Name: "far-version", Instance: far},
		{Name: "clone", Instance: clone},
		{Name: "near-version", Instance: near},
		{Name: "column-dropped", Instance: dropped},
	}
}

func TestRankOrdersByCloseness(t *testing.T) {
	example, cands := buildLake(t)
	res, err := Rank(context.Background(), example, cands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("results = %d", len(res))
	}
	pos := map[string]int{}
	for i, r := range res {
		pos[r.Name] = i
	}
	if pos["clone"] != 0 {
		t.Errorf("clone should rank first: %v", res)
	}
	if !(pos["near-version"] < pos["far-version"]) {
		t.Errorf("near should beat far: %v", res)
	}
	if pos["unrelated"] != 4 {
		t.Errorf("unrelated should rank last: %v", res)
	}
	if res[pos["clone"]].Score < 0.999 {
		t.Errorf("clone score = %v, want 1", res[pos["clone"]].Score)
	}
	// NBA stat lines share some numeric strings with Iris measurements,
	// so the score is small but not zero.
	if res[pos["unrelated"]].Score > 0.3 {
		t.Errorf("unrelated score = %v, want small", res[pos["unrelated"]].Score)
	}
}

func TestRankPrefilterPrunes(t *testing.T) {
	example, cands := buildLake(t)
	res, err := Rank(context.Background(), example, cands, Options{MinValueOverlap: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var prunedNames []string
	for _, r := range res {
		if r.Pruned {
			prunedNames = append(prunedNames, r.Name)
			if r.Score != 0 {
				t.Errorf("pruned candidate %s has score %v", r.Name, r.Score)
			}
		}
	}
	if len(prunedNames) == 0 {
		t.Fatal("prefilter pruned nothing; expected the unrelated dataset out")
	}
	for _, name := range prunedNames {
		if name != "unrelated" {
			t.Errorf("prefilter wrongly pruned %s", name)
		}
	}
	// Pruned entries sort after scored ones.
	if res[len(res)-1].Name != "unrelated" {
		t.Errorf("pruned candidate not last: %v", res)
	}
}

// TestRankParallelMatchesSequential: the worker pool must produce the same
// ranking as the sequential path (run with -race to check for data races).
// TestRankParallelMatchesSequential pins the property cmd/lakefind's
// Workers = GOMAXPROCS default relies on: the ranking (names, scores,
// overlaps, prune decisions, and order) is identical for every worker
// count.
func TestRankParallelMatchesSequential(t *testing.T) {
	example, cands := buildLake(t)
	seq, err := Rank(context.Background(), example, cands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 16} {
		par, err := Rank(context.Background(), example, cands, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(par) {
			t.Fatalf("workers=%d: lengths differ: %d vs %d", workers, len(seq), len(par))
		}
		for i := range seq {
			// Stats pointers differ per run; compare everything else.
			a, b := seq[i], par[i]
			a.Stats, b.Stats = nil, nil
			if a != b {
				t.Errorf("workers=%d rank %d differs: %+v vs %+v", workers, i, a, b)
			}
		}
	}
}

// BenchmarkRank measures lake ranking sequentially and at the lakefind
// default worker count (alignName + normalization + signature comparison
// per surviving candidate).
func BenchmarkRank(b *testing.B) {
	base := datasets.IrisData(100, rand.New(rand.NewSource(4)))
	var cands []Candidate
	for i := 0; i < 8; i++ {
		c := generator.Make(base, generator.Noise{CellPct: 0.05 * float64(i%4), Seed: int64(i)}).Target
		cands = append(cands, Candidate{Name: string(rune('a' + i)), Instance: c})
	}
	for name, workers := range map[string]int{"workers=1": 1, "workers=max": runtime.GOMAXPROCS(0)} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Rank(context.Background(), base, cands, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestRankEmptyLake(t *testing.T) {
	example, _ := buildLake(t)
	res, err := Rank(context.Background(), example, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("results = %v", res)
	}
}

func TestRankSchemaMismatchHandledByAlignment(t *testing.T) {
	example, cands := buildLake(t)
	for _, r := range cands {
		if r.Name == "column-dropped" {
			res, err := Rank(context.Background(), example, []Candidate{r}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res[0].Score < 0.5 {
				t.Errorf("dropped-column candidate score = %v, want high", res[0].Score)
			}
		}
	}
}

// TestRankPreparedMatchesRankContext pins the resident-registry path: a
// ranking over pre-prepared instances must be identical (names, scores,
// overlaps, prune and timeout decisions, order) to Rank over the same raw
// instances.
func TestRankPreparedMatchesRankContext(t *testing.T) {
	example, cands := buildLake(t)
	oneShot, err := Rank(context.Background(), example, cands, Options{})
	if err != nil {
		t.Fatal(err)
	}

	exPrep, err := instcmp.Prepare(example)
	if err != nil {
		t.Fatal(err)
	}
	var pcands []PreparedCandidate
	for _, c := range cands {
		p, err := instcmp.Prepare(c.Instance)
		if err != nil {
			t.Fatal(err)
		}
		pcands = append(pcands, PreparedCandidate{Name: c.Name, Prepared: p})
	}
	resident, err := RankPreparedContext(context.Background(), exPrep, pcands, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if len(oneShot) != len(resident) {
		t.Fatalf("lengths differ: %d vs %d", len(oneShot), len(resident))
	}
	for i := range oneShot {
		a, b := oneShot[i], resident[i]
		a.Stats, b.Stats = nil, nil
		if a != b {
			t.Errorf("rank %d differs: one-shot %+v vs resident %+v", i, a, b)
		}
	}
}

// BenchmarkRankPrepared measures the win of the resident path: "oneshot"
// pays normalization + interning for the example and every candidate per
// ranking, "resident" prepares everything once and only runs the matcher.
func BenchmarkRankPrepared(b *testing.B) {
	base := datasets.IrisData(100, rand.New(rand.NewSource(4)))
	var cands []Candidate
	for i := 0; i < 8; i++ {
		c := generator.Make(base, generator.Noise{CellPct: 0.05 * float64(i%4), Seed: int64(i)}).Target
		cands = append(cands, Candidate{Name: string(rune('a' + i)), Instance: c})
	}
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Rank(context.Background(), base, cands, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resident", func(b *testing.B) {
		exPrep, err := instcmp.Prepare(base)
		if err != nil {
			b.Fatal(err)
		}
		var pcands []PreparedCandidate
		for _, c := range cands {
			p, err := instcmp.Prepare(c.Instance)
			if err != nil {
				b.Fatal(err)
			}
			pcands = append(pcands, PreparedCandidate{Name: c.Name, Prepared: p})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RankPreparedContext(context.Background(), exPrep, pcands, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRankRejectsInvalidOptions pins that every entry point refuses
// out-of-range options with ErrInvalidOptions before doing any work.
func TestRankRejectsInvalidOptions(t *testing.T) {
	example, lake := generatedLake(t, 5, 3)
	var cands []Candidate
	for _, c := range lake {
		cands = append(cands, Candidate{Name: c.Name, Instance: c.Prepared.Instance()})
	}
	bad := map[string]Options{
		"negative MaxSample":           {MaxSample: -1},
		"negative TopK":                {TopK: -1},
		"negative MinShortlist":        {MinShortlist: -1},
		"negative PerCandidateTimeout": {PerCandidateTimeout: -time.Second},
		"MinValueOverlap above 1":      {MinValueOverlap: 1.01},
		"negative MinValueOverlap":     {MinValueOverlap: -0.5},
		"NaN MinValueOverlap":          {MinValueOverlap: math.NaN()},
	}
	ctx := context.Background()
	for name, opt := range bad {
		if _, err := Rank(ctx, example.Instance(), cands, opt); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Rank, %s: err = %v", name, err)
		}
		if _, err := RankPreparedContext(ctx, example, lake, opt); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("RankPreparedContext, %s: err = %v", name, err)
		}
		if _, _, err := RankIndexedContext(ctx, example, lake, nil, opt); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("RankIndexedContext, %s: err = %v", name, err)
		}
		ranked := false
		_, _, err := RankThroughIndex([]string{"a"}, nil, nil, opt, func([]int) ([]Result, error) {
			ranked = true
			return nil, nil
		})
		if !errors.Is(err, ErrInvalidOptions) || ranked {
			t.Errorf("RankThroughIndex, %s: err = %v, ranked = %v", name, err, ranked)
		}
	}
	if _, err := Rank(ctx, example.Instance(), cands, Options{MinValueOverlap: 1, MaxSample: 1}); err != nil {
		t.Errorf("boundary options rejected: %v", err)
	}
}

// TestValueOverlapAllocatesNothing pins that the prefilter's overlap is read
// from the prepared coding without allocating.
func TestValueOverlapAllocatesNothing(t *testing.T) {
	example, lake := generatedLake(t, 5, 3)
	for _, maxSample := range []int{1, 7, 1000} {
		allocs := testing.AllocsPerRun(20, func() {
			for _, c := range lake {
				example.ValueOverlap(c.Prepared, maxSample)
				c.Prepared.ValueOverlap(example, maxSample)
			}
		})
		if allocs != 0 {
			t.Errorf("MaxSample %d: %v allocations per run, want 0", maxSample, allocs)
		}
	}
}
