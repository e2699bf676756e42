// Package regress pins the numeric behavior of the comparison algorithms
// against golden scores captured from the pre-interning, string-based
// implementation. The integer-coded core is a pure representation change:
// every score must come out bit-identical, so the comparisons below use
// exact float64 equality, not tolerances.
package regress

import (
	"context"
	"math"
	"testing"

	"instcmp"
	"instcmp/internal/datasets"
	"instcmp/internal/exact"
	"instcmp/internal/generator"
	"instcmp/internal/match"
	"instcmp/internal/signature"
)

// goldenSignature holds signature-algorithm scores recorded from the
// string-based implementation (λ = 0.5).
var goldenSignature = []struct {
	name  datasets.Name
	rows  int
	noise generator.Noise
	mode  match.Mode
	seed  int64
	want  float64
}{
	{datasets.Doct, 200, generator.Noise{CellPct: 0.05}, match.OneToOne, 1, 0.78300000000000025},
	{datasets.Doct, 200, generator.Noise{CellPct: 0.25, NullReuse: 0.3}, match.Functional, 1, 0.28958333333333336},
	{datasets.Bike, 150, generator.Noise{CellPct: 0.05, RandomPct: 0.1, RedundantPct: 0.1}, match.ManyToMany, 1, 0.5973501125434828},
	{datasets.Git, 150, generator.Noise{CellPct: 0.10}, match.OneToOne, 1, 0.23201754385964912},
	{datasets.Bus, 100, generator.Noise{CellPct: 0.50}, match.ManyToMany, 1, 0},
	{datasets.Doct, 200, generator.Noise{CellPct: 0.05}, match.OneToOne, 2, 0.74950000000000006},
	{datasets.Doct, 200, generator.Noise{CellPct: 0.25, NullReuse: 0.3}, match.Functional, 2, 0.25600000000000006},
	{datasets.Bike, 150, generator.Noise{CellPct: 0.05, RandomPct: 0.1, RedundantPct: 0.1}, match.ManyToMany, 2, 0.53345610804174337},
	{datasets.Git, 150, generator.Noise{CellPct: 0.10}, match.OneToOne, 2, 0.13321637426900584},
	{datasets.Bus, 100, generator.Noise{CellPct: 0.50}, match.ManyToMany, 2, 0},
	{datasets.Doct, 200, generator.Noise{CellPct: 0.05}, match.OneToOne, 3, 0.78400000000000025},
	{datasets.Doct, 200, generator.Noise{CellPct: 0.25, NullReuse: 0.3}, match.Functional, 3, 0.31416666666666665},
	{datasets.Bike, 150, generator.Noise{CellPct: 0.05, RandomPct: 0.1, RedundantPct: 0.1}, match.ManyToMany, 3, 0.61868221812973201},
	{datasets.Git, 150, generator.Noise{CellPct: 0.10}, match.OneToOne, 3, 0.15067251461988304},
	{datasets.Bus, 100, generator.Noise{CellPct: 0.50}, match.ManyToMany, 3, 0},
}

func TestSignatureGoldenScores(t *testing.T) {
	for _, tc := range goldenSignature {
		base, err := datasets.Generate(tc.name, tc.rows, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		n := tc.noise
		n.Seed = tc.seed
		sc := generator.Make(base, n)
		res, err := signature.Run(context.Background(), sc.Source, sc.Target, tc.mode, signature.Options{Lambda: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Score != tc.want {
			t.Errorf("%s rows=%d seed=%d mode=%v: score %.17g, golden %.17g",
				tc.name, tc.rows, tc.seed, tc.mode, res.Score, tc.want)
		}
	}
}

// TestSignatureGoldenAcrossWorkers pins the signature pipeline against the
// same goldens: Workers 1 and 4 must reproduce every score bit-identically
// (mirroring the exact engine's worker pins). The golden instances sit
// below the pipeline's row gate, so every phase runs inline and this
// guards the option plumbing; the gate-crossing case is
// TestSignatureLargeInstanceWorkerInvariance below.
func TestSignatureGoldenAcrossWorkers(t *testing.T) {
	for _, tc := range goldenSignature {
		base, err := datasets.Generate(tc.name, tc.rows, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		n := tc.noise
		n.Seed = tc.seed
		sc := generator.Make(base, n)
		for _, workers := range []int{1, 4} {
			res, err := signature.Run(context.Background(), sc.Source, sc.Target, tc.mode, signature.Options{Lambda: 0.5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Score != tc.want {
				t.Errorf("%s rows=%d seed=%d mode=%v workers=%d: score %.17g, golden %.17g",
					tc.name, tc.rows, tc.seed, tc.mode, workers, res.Score, tc.want)
			}
		}
	}
}

// TestSignatureLargeInstanceWorkerInvariance crosses the pipeline's
// fan-out gate (minParallelRows) with a 2000-row Table-2-shaped instance
// and pins SigWorkers 1 and 4 against each other through the public API:
// score, pair count, and signature stats must agree bit-for-bit, and the
// fanned-out run must actually have committed pipeline blocks. The
// SigWorkers=1 run is also pinned to the outcome recorded from the
// earlier sequential phase implementations.
func TestSignatureLargeInstanceWorkerInvariance(t *testing.T) {
	base, err := datasets.Generate(datasets.Doct, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := generator.Make(base, generator.Noise{CellPct: 0.05, NullReuse: 0.3, Seed: 1})
	const (
		wantScore    = 0x3fe88d2ceb622ad4 // Float64bits of score and ScoreAfterSig
		wantPairs    = 1576               // all of them signature matches
		wantAttempts = 1922
		wantRejects  = 2
		wantEvals    = 5072
	)
	var ref *instcmp.Result
	for _, workers := range []int{1, 4} {
		res, err := instcmp.Compare(sc.Source, sc.Target, &instcmp.Options{
			Mode:       instcmp.OneToOne,
			Lambda:     0.5,
			Algorithm:  instcmp.AlgoSignature,
			SigWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SigWorkers != workers {
			t.Errorf("SigWorkers=%d: Stats.SigWorkers = %d", workers, res.Stats.SigWorkers)
		}
		if workers == 1 {
			ref = res
			if res.Stats.SigParallelBlocks != 0 {
				t.Errorf("inline run committed %d fanned-out blocks", res.Stats.SigParallelBlocks)
			}
			if math.Float64bits(res.Score) != wantScore || math.Float64bits(res.Stats.ScoreAfterSig) != wantScore ||
				len(res.Pairs) != wantPairs || res.Stats.SigMatches != wantPairs || res.Stats.CompatMatches != 0 ||
				res.Stats.PairAttempts != wantAttempts || res.Stats.PairRejects != wantRejects || res.Stats.ScoreEvals != wantEvals {
				t.Errorf("SigWorkers=1: score bits %#x, %d pairs, stats %+v; pinned %#x, %d pairs, attempts/rejects/evals %d/%d/%d",
					math.Float64bits(res.Score), len(res.Pairs), res.Stats, uint64(wantScore), wantPairs, wantAttempts, wantRejects, wantEvals)
			}
			continue
		}
		if res.Stats.SigParallelBlocks == 0 {
			t.Errorf("SigWorkers=%d: pipeline never fanned out", workers)
		}
		if res.Score != ref.Score {
			t.Errorf("SigWorkers=%d: score %.17g, sequential %.17g", workers, res.Score, ref.Score)
		}
		if len(res.Pairs) != len(ref.Pairs) {
			t.Errorf("SigWorkers=%d: %d pairs, sequential %d", workers, len(res.Pairs), len(ref.Pairs))
		}
		if res.Stats.SigMatches != ref.Stats.SigMatches ||
			res.Stats.CompatMatches != ref.Stats.CompatMatches ||
			res.Stats.ScoreAfterSig != ref.Stats.ScoreAfterSig ||
			res.Stats.PairAttempts != ref.Stats.PairAttempts ||
			res.Stats.PairRejects != ref.Stats.PairRejects ||
			res.Stats.ScoreEvals != ref.Stats.ScoreEvals {
			t.Errorf("SigWorkers=%d: stats diverge from sequential run:\n  got  %+v\n  want %+v",
				workers, res.Stats, ref.Stats)
		}
	}
}

// TestDiscoveryIdentityGoldenScores pins that mapping discovery is inert
// when the schemas already agree: with DiscoverMapping set, every golden
// score must reproduce bit-identically and no mapping may be reported —
// discovery only engages on a schema mismatch.
func TestDiscoveryIdentityGoldenScores(t *testing.T) {
	for _, tc := range goldenSignature {
		base, err := datasets.Generate(tc.name, tc.rows, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		n := tc.noise
		n.Seed = tc.seed
		sc := generator.Make(base, n)
		res, err := instcmp.Compare(sc.Source, sc.Target, &instcmp.Options{
			Mode:            tc.mode,
			Lambda:          0.5,
			Algorithm:       instcmp.AlgoSignature,
			DiscoverMapping: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Score != tc.want {
			t.Errorf("%s rows=%d seed=%d mode=%v: discovery-enabled score %.17g, golden %.17g",
				tc.name, tc.rows, tc.seed, tc.mode, res.Score, tc.want)
		}
		if res.Mapping != nil {
			t.Errorf("%s seed=%d: mapping reported for identical schemas", tc.name, tc.seed)
		}
	}
}

// goldenExact holds exhaustive exact-search scores (Doct, 12 rows, CellPct
// 0.2, 1-to-1, λ = 0.5) from the string-based implementation.
var goldenExact = []struct {
	seed int64
	want float64
}{
	{1, 0.43333333333333335},
	{2, 0.44166666666666665},
	{3, 0.24166666666666667},
}

// TestExactGoldenScores pins the exact engine's score against the golden
// values with and without the signature warm start. Both variants must
// agree bit-for-bit with the goldens — the warm start is a pure
// acceleration.
func TestExactGoldenScores(t *testing.T) {
	for _, tc := range goldenExact {
		base, err := datasets.Generate(datasets.Doct, 12, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		sc := generator.Make(base, generator.Noise{CellPct: 0.2, Seed: tc.seed})
		for _, noWarm := range []bool{false, true} {
			res, err := exact.Run(context.Background(), sc.Source, sc.Target, match.OneToOne,
				exact.Options{Lambda: 0.5, NoWarmStart: noWarm})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exhaustive {
				t.Fatalf("seed %d noWarm=%v: search not exhaustive", tc.seed, noWarm)
			}
			if res.Score != tc.want {
				t.Errorf("seed %d noWarm=%v: score %.17g, golden %.17g",
					tc.seed, noWarm, res.Score, tc.want)
			}
		}
	}
}

// TestCompareContextGoldenScores pins that threading a context and
// collecting the unified stats never perturbs the search: CompareContext
// with an uncancelable background context reproduces the goldens
// bit-identically for both algorithms, whatever the ignored ExactWorkers.
func TestCompareContextGoldenScores(t *testing.T) {
	sigCase := goldenSignature[0]
	base, err := datasets.Generate(sigCase.name, sigCase.rows, sigCase.seed)
	if err != nil {
		t.Fatal(err)
	}
	n := sigCase.noise
	n.Seed = sigCase.seed
	sc := generator.Make(base, n)
	res, err := instcmp.CompareContext(context.Background(), sc.Source, sc.Target, &instcmp.Options{
		Mode:      sigCase.mode,
		Lambda:    0.5,
		Algorithm: instcmp.AlgoSignature,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != sigCase.want {
		t.Errorf("signature via context: score %.17g, golden %.17g", res.Score, sigCase.want)
	}
	if res.Stopped != "" {
		t.Errorf("uncanceled run reported Stopped = %q", res.Stopped)
	}

	for _, tc := range goldenExact {
		base, err := datasets.Generate(datasets.Doct, 12, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		sc := generator.Make(base, generator.Noise{CellPct: 0.2, Seed: tc.seed})
		for _, workers := range []int{1, 4} {
			res, err := instcmp.CompareContext(context.Background(), sc.Source, sc.Target, &instcmp.Options{
				Mode:         instcmp.OneToOne,
				Lambda:       0.5,
				Algorithm:    instcmp.AlgoExact,
				ExactWorkers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Score != tc.want {
				t.Errorf("seed %d ExactWorkers=%d via context: score %.17g, golden %.17g",
					tc.seed, workers, res.Score, tc.want)
			}
			if res.Stopped != "" {
				t.Errorf("seed %d: uncanceled run reported Stopped = %q", tc.seed, res.Stopped)
			}
			if res.Stats.Nodes == 0 || res.Stats.PairAttempts == 0 {
				t.Errorf("seed %d: stats not populated: %+v", tc.seed, res.Stats)
			}
		}
	}
}

// TestCompareGoldenAcrossExactWorkers pins that the deprecated ExactWorkers
// option is ignored at the public API level: Compare with AlgoExact returns
// the golden scores for ExactWorkers 1 and 4.
func TestCompareGoldenAcrossExactWorkers(t *testing.T) {
	for _, tc := range goldenExact {
		base, err := datasets.Generate(datasets.Doct, 12, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		sc := generator.Make(base, generator.Noise{CellPct: 0.2, Seed: tc.seed})
		for _, workers := range []int{1, 4} {
			res, err := instcmp.Compare(sc.Source, sc.Target, &instcmp.Options{
				Mode:         instcmp.OneToOne,
				Lambda:       0.5,
				Algorithm:    instcmp.AlgoExact,
				ExactWorkers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Score != tc.want {
				t.Errorf("seed %d ExactWorkers=%d: score %.17g, golden %.17g",
					tc.seed, workers, res.Score, tc.want)
			}
		}
	}
}
