package instcmp_test

// One benchmark per table and figure of the paper's evaluation (Sec. 7).
// Each bench regenerates its experiment at a bench-friendly scale and
// reports the relevant shape metrics (scores, diffs, phase splits) through
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the paper's
// story end to end. cmd/experiments runs the same code at full scale.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"instcmp"
	"instcmp/internal/datasets"
	"instcmp/internal/exact"
	"instcmp/internal/experiments"
	"instcmp/internal/generator"
	"instcmp/internal/match"
	"instcmp/internal/signature"
)

const benchSeed = 42

var benchCfg = experiments.Config{Seed: benchSeed}

// BenchmarkTable1Datasets measures dataset synthesis (Table 1 statistics).
func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(benchCfg, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScore runs one Table 2/3 configuration per iteration and reports
// the signature score and its difference from the reference.
func benchScore(b *testing.B, name datasets.Name, rows int, noise generator.Noise, mode match.Mode) {
	b.Helper()
	base, err := datasets.Generate(name, rows, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	noise.Seed = benchSeed
	sc := generator.Make(base, noise)
	ref, err := sc.BestKnownScore(0.5, mode)
	if err != nil {
		b.Fatal(err)
	}
	var sig *signature.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig, err = signature.Run(context.Background(), sc.Source, sc.Target, mode, signature.Options{Lambda: 0.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	diff := ref - sig.Score
	if diff < 0 {
		diff = -diff
	}
	b.ReportMetric(sig.Score, "sig-score")
	b.ReportMetric(diff, "score-diff")
	if diff > 0.01 {
		b.Errorf("score diff %v exceeds the paper's 1%% band", diff)
	}
}

// BenchmarkTable2 reproduces Table 2 (modCell 5%, 1-to-1) per dataset/size.
func BenchmarkTable2(b *testing.B) {
	for _, name := range []datasets.Name{datasets.Doct, datasets.Bike, datasets.Git} {
		for _, rows := range []int{500, 1000} {
			b.Run(fmt.Sprintf("%s/%d", name, rows), func(b *testing.B) {
				benchScore(b, name, rows, experiments.Table2Noise, match.OneToOne)
			})
		}
	}
}

// BenchmarkTable2Exact measures the exact algorithm on the Table 2 workload
// at a paper-scale size it finishes exhaustively (the branch-and-bound's
// optimistic-score pruning handles the 1-to-1 modCell workload well; the
// n-to-m powerset search of Table 3 remains budget-bound, per Thm. 5.11).
func BenchmarkTable2Exact(b *testing.B) {
	b.ReportAllocs()
	base, err := datasets.Generate(datasets.Doct, 500, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	noise := experiments.Table2Noise
	noise.Seed = benchSeed
	sc := generator.Make(base, noise)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exact.Run(context.Background(), sc.Source, sc.Target, match.OneToOne,
			exact.Options{Lambda: 0.5, Timeout: 2 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Exhaustive {
			b.Fatal("exact search did not finish at bench size")
		}
	}
}

// BenchmarkExactSearch measures the exact engine's branch-and-bound search.
//
// The warm and nowarm variants run a workload the cold engine cannot
// finish: Doct 100 rows with Table-3-style noise (5% cells nulled, 10%
// random and 10% redundant tuples) in the general n-to-m mode. The general
// search's first descent greedily includes every consistent pair — a poor
// leaf — so a cold run burns its whole budget proving nothing, while the
// signature warm start hands the search an incumbent that meets the root's
// optimistic bound and certifies the optimum at node 1. The nowarm variant
// is the same canonical DFS from an empty incumbent, stopped by a budget of
// 10⁵ nodes: the search is deterministic, so every iteration walks the
// same nodes, and the variant asserts that the budget, not certification,
// ended it.
//
// The onetoone variant is a left-injective search as pairs-small runs
// them: Doct 500 rows with Table-2 noise (seed 101) in the 1-to-1 mode,
// which the walk certifies cold in 900 nodes. All three variants report
// their node count.
//
// The cold/rows=N variants are searches that do certify without the warm
// start, after 10⁴–10⁵ nodes: Doct n-to-m with the paper's Table-3 noise
// (dataset and noise seed 7) at 30, 40 and 60 rows. They time the walk
// itself and report its node count.
func BenchmarkExactSearch(b *testing.B) {
	base, err := datasets.Generate(datasets.Doct, 100, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	sc := generator.Make(base, generator.Noise{
		CellPct: 0.05, RandomPct: 0.1, RedundantPct: 0.1, Seed: benchSeed,
	})
	doct500, err := datasets.Generate(datasets.Doct, 500, 1)
	if err != nil {
		b.Fatal(err)
	}
	table2 := experiments.Table2Noise
	table2.Seed = 101
	oneToOne := generator.Make(doct500, table2)
	for _, v := range []struct {
		name    string
		sc      *generator.Scenario
		mode    match.Mode
		opt     exact.Options
		stopped string // "" asserts an exhaustive search
	}{
		{"warm", sc, match.ManyToMany, exact.Options{Lambda: 0.5, Timeout: 2 * time.Minute}, ""},
		{"nowarm", sc, match.ManyToMany, exact.Options{Lambda: 0.5, NoWarmStart: true, MaxNodes: 100000}, exact.StoppedNodeBudget},
		{"onetoone", oneToOne, match.OneToOne, exact.Options{Lambda: 0.5, MaxNodes: 5000}, ""},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var nodes int64
			for i := 0; i < b.N; i++ {
				res, err := exact.Run(context.Background(), v.sc.Source, v.sc.Target, v.mode, v.opt)
				if err != nil {
					b.Fatal(err)
				}
				if res.Exhaustive != (v.stopped == "") || res.Stopped != v.stopped {
					b.Fatalf("search exhaustive %v, stopped %q; want stopped %q", res.Exhaustive, res.Stopped, v.stopped)
				}
				nodes = res.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
	for _, rows := range []int{30, 40, 60} {
		base, err := datasets.Generate(datasets.Doct, rows, 7)
		if err != nil {
			b.Fatal(err)
		}
		noise := experiments.Table3Noise
		noise.Seed = 7
		sc := generator.Make(base, noise)
		b.Run(fmt.Sprintf("cold/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int64
			for i := 0; i < b.N; i++ {
				res, err := exact.Run(context.Background(), sc.Source, sc.Target, match.ManyToMany,
					exact.Options{Lambda: 0.5, NoWarmStart: true, Timeout: 20 * time.Second})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Exhaustive {
					b.Fatal("cold search did not certify at bench size")
				}
				nodes = res.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkTable3 reproduces Table 3 (addRandomAndRedundant, n-to-m).
func BenchmarkTable3(b *testing.B) {
	for _, name := range []datasets.Name{datasets.Doct, datasets.Bike, datasets.Git} {
		for _, rows := range []int{500, 1000} {
			b.Run(fmt.Sprintf("%s/%d", name, rows), func(b *testing.B) {
				benchScore(b, name, rows, experiments.Table3Noise, match.ManyToMany)
			})
		}
	}
}

// BenchmarkTable4Ablation reproduces Table 4 (phase split of the signature
// algorithm) and reports the SB-step share.
func BenchmarkTable4Ablation(b *testing.B) {
	var rows []experiments.Table4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunTable4(benchCfg, 1000)
		if err != nil {
			b.Fatal(err)
		}
	}
	minSB := 100.0
	for _, r := range rows {
		if r.PctSig < minSB {
			minSB = r.PctSig
		}
	}
	b.ReportMetric(minSB, "min-%SB")
	if minSB < 90 {
		b.Errorf("signature step found only %.1f%% of matches", minSB)
	}
}

// BenchmarkTable5Cleaning reproduces Table 5 (cleaning metrics) and asserts
// the F1 ranking with high Sig scores.
func BenchmarkTable5Cleaning(b *testing.B) {
	var rows []experiments.Table5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunTable5(benchCfg, 5000)
		if err != nil {
			b.Fatal(err)
		}
	}
	f1 := map[string]float64{}
	for _, r := range rows {
		f1[r.System] = r.F1
		if r.SigScore < 0.95 {
			b.Errorf("%s: sig score %v below Table 5 band", r.System, r.SigScore)
		}
	}
	b.ReportMetric(f1["Llunatic"], "f1-llunatic")
	b.ReportMetric(f1["Sampling"], "f1-sampling")
	if !(f1["Llunatic"] > f1["Sampling"]) {
		b.Error("F1 ranking collapsed")
	}
}

// BenchmarkTable6Exchange reproduces Table 6 (data exchange vs core gold).
func BenchmarkTable6Exchange(b *testing.B) {
	var rows []experiments.Table6Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunTable6(benchCfg, []int{400})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Scenario {
		case "Doct-W":
			b.ReportMetric(r.SigScore, "sig-wrong")
			if r.SigScore > 0.05 || r.RowScore < 0.9 {
				b.Errorf("wrong-mapping shape broken: %+v", r)
			}
		case "Doct-U1":
			b.ReportMetric(r.SigScore, "sig-u1")
		case "Doct-U2":
			b.ReportMetric(r.SigScore, "sig-u2")
		}
	}
}

// BenchmarkTable7Versioning reproduces Table 7 (diff vs signature).
func BenchmarkTable7Versioning(b *testing.B) {
	var rows []experiments.Table7Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunTable7(benchCfg, 120)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Variant == "S" && (r.Sig.Matched != r.TO || r.Diff.Matched >= r.TO/2) {
			b.Errorf("%s-S shape broken: %+v", r.Dataset, r)
		}
		if r.Variant == "C" && (r.Sig.Matched != r.TO || r.Diff.Matched != 0) {
			b.Errorf("%s-C shape broken: %+v", r.Dataset, r)
		}
	}
}

// BenchmarkFigure8 reproduces Figure 8 (score diff vs C%).
func BenchmarkFigure8(b *testing.B) {
	var pts []experiments.Fig8Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.RunFigure8(benchCfg, 500, []float64{0.05, 0.25, 0.50})
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, p := range pts {
		if p.Diff > worst {
			worst = p.Diff
		}
	}
	b.ReportMetric(worst, "max-score-diff")
	if worst > 0.02 {
		b.Errorf("Figure 8 diff %v exceeds band", worst)
	}
}

// BenchmarkAblationNullAttrs reproduces the tech-report ablation on the
// number of null-bearing attributes.
func BenchmarkAblationNullAttrs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationNullAttrs(benchCfg, 500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignatureScaling measures raw signature throughput across
// instance sizes (the scalability story of Tables 2-3's Sig T(s) column),
// sequential and with the parallel pipeline at 4 workers. The score is
// bit-identical across the workers axis; only wall-clock differs.
func BenchmarkSignatureScaling(b *testing.B) {
	for _, rows := range []int{1000, 5000, 20000} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("rows-%d/workers-%d", rows, workers), func(b *testing.B) {
				b.ReportAllocs()
				base, err := datasets.Generate(datasets.Doct, rows, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				noise := experiments.Table2Noise
				noise.Seed = benchSeed
				sc := generator.Make(base, noise)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := signature.Run(context.Background(), sc.Source, sc.Target, match.OneToOne,
						signature.Options{Lambda: 0.5, Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSignatureParallel measures the parallel signature pipeline on the
// workload it targets: the Git dataset's wide 19-attribute relation, where
// per-row signature hashing, pattern scans, and completion probes dominate.
// Subbenchmarks sweep the worker count; every variant is verified to
// produce the sequential score (worker invariance is the pipeline's
// contract, see DESIGN.md §12). Speedup over workers-1 is the tentpole
// metric; on a single-CPU machine the parallel variants only add pipeline
// overhead, so interpret ratios together with the recorded GOMAXPROCS.
func BenchmarkSignatureParallel(b *testing.B) {
	base, err := datasets.Generate(datasets.Git, 2000, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	noise := experiments.Table2Noise
	noise.Seed = benchSeed
	sc := generator.Make(base, noise)
	seq, err := signature.Run(context.Background(), sc.Source, sc.Target, match.OneToOne, signature.Options{Lambda: 0.5, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var res *signature.Result
			for i := 0; i < b.N; i++ {
				res, err = signature.Run(context.Background(), sc.Source, sc.Target, match.OneToOne,
					signature.Options{Lambda: 0.5, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			if res.Score != seq.Score {
				b.Fatalf("workers=%d: score %v, sequential %v", workers, res.Score, seq.Score)
			}
			if workers > 1 && res.Stats.ScanBlocks == 0 {
				b.Fatalf("workers=%d: parallel scan never engaged", workers)
			}
		})
	}
}

// BenchmarkExactVsSignatureCrossover demonstrates the complexity gap
// (Thm. 5.11) on the hard n-to-m setting: the exact powerset search grows
// superpolynomially with instance size (budget-capped runs report as
// skipped) while the signature algorithm stays near-linear.
func BenchmarkExactVsSignatureCrossover(b *testing.B) {
	for _, rows := range []int{10, 20, 40} {
		base, err := datasets.Generate(datasets.Doct, rows, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		noise := experiments.Table3Noise
		noise.Seed = benchSeed
		sc := generator.Make(base, noise)
		b.Run(fmt.Sprintf("exact/rows-%d", rows), func(b *testing.B) {
			var nodes int64
			exhausted := true
			for i := 0; i < b.N; i++ {
				res, err := exact.Run(context.Background(), sc.Source, sc.Target, match.ManyToMany,
					exact.Options{Lambda: 0.5, Timeout: 20 * time.Second})
				if err != nil {
					b.Fatal(err)
				}
				nodes, exhausted = res.Nodes, res.Exhaustive
			}
			b.ReportMetric(float64(nodes), "nodes")
			if !exhausted {
				b.Logf("rows-%d: budget hit after %d nodes (the exponential wall)", rows, nodes)
			}
		})
		b.Run(fmt.Sprintf("signature/rows-%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := signature.Run(context.Background(), sc.Source, sc.Target, match.ManyToMany,
					signature.Options{Lambda: 0.5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSignatureDesignAblations measures the cost/benefit of the
// implementation's refinements over the paper's literal greedy (DESIGN.md
// calls these out): the sub-signature rescue round, the perfect-first
// round, and the net-gain guard.
func BenchmarkSignatureDesignAblations(b *testing.B) {
	base, err := datasets.Generate(datasets.Git, 1000, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	noise := experiments.Table3Noise
	noise.Seed = benchSeed
	sc := generator.Make(base, noise)
	variants := []struct {
		name string
		opt  signature.Options
	}{
		{"full", signature.Options{Lambda: 0.5}},
		{"no-rescue", signature.Options{Lambda: 0.5, DisableRescue: true}},
		{"single-round", signature.Options{Lambda: 0.5, SingleRound: true}},
		{"no-gain-guard", signature.Options{Lambda: 0.5, NoGainGuard: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var res *signature.Result
			for i := 0; i < b.N; i++ {
				res, err = signature.Run(context.Background(), sc.Source, sc.Target, match.ManyToMany, v.opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Score, "sig-score")
			pctSB := 100 * float64(res.Stats.SigMatches) /
				float64(res.Stats.SigMatches+res.Stats.CompatMatches)
			b.ReportMetric(pctSB, "%SB")
		})
	}
}

// BenchmarkPreparedCompare measures the Prepare/Compare split against the
// one-shot path on the same pair: "oneshot" pays normalization and coding
// every call, "prepared" pays them once outside the loop — the shape of a
// resident registry serving repeated comparisons.
func BenchmarkPreparedCompare(b *testing.B) {
	base, err := datasets.Generate(datasets.Bike, 2000, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	noise := experiments.Table2Noise
	noise.Seed = benchSeed
	sc := generator.Make(base, noise)
	opt := &instcmp.Options{Mode: instcmp.OneToOne, Algorithm: instcmp.AlgoSignature}
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := instcmp.Compare(sc.Source, sc.Target, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		lp, err := instcmp.Prepare(sc.Source)
		if err != nil {
			b.Fatal(err)
		}
		rp, err := instcmp.Prepare(sc.Target)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := instcmp.ComparePrepared(lp, rp, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPrepare measures Prepare alone — snapshot, null inventory,
// value interning and integer coding — on a wide-domain relation (Doct,
// 10k rows) and a wide one (Git, 19 attributes, 2.8k rows).
func BenchmarkPrepare(b *testing.B) {
	for _, v := range []struct {
		name datasets.Name
		rows int
	}{
		{datasets.Doct, 10000},
		{datasets.Git, 2800},
	} {
		b.Run(fmt.Sprintf("%s/rows-%d", v.name, v.rows), func(b *testing.B) {
			inst, err := datasets.Generate(v.name, v.rows, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := instcmp.Prepare(inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSignatureSmall measures prepared signature compares at the
// sizes below the pipeline's row gate, where every phase runs inline: the
// shapes of lake-ranking candidates, service compares, and the exact
// search's warm start. Doct runs 1-to-1 with Table 2 noise, Bike n-to-m
// with Table 3 noise.
func BenchmarkSignatureSmall(b *testing.B) {
	for _, v := range []struct {
		name  datasets.Name
		noise generator.Noise
		mode  instcmp.Mode
	}{
		{datasets.Doct, experiments.Table2Noise, instcmp.OneToOne},
		{datasets.Bike, experiments.Table3Noise, instcmp.ManyToMany},
	} {
		for _, rows := range []int{24, 40, 100, 500} {
			b.Run(fmt.Sprintf("%s/rows-%d", v.name, rows), func(b *testing.B) {
				base, err := datasets.Generate(v.name, rows, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				noise := v.noise
				noise.Seed = benchSeed
				sc := generator.Make(base, noise)
				lp, err := instcmp.Prepare(sc.Source)
				if err != nil {
					b.Fatal(err)
				}
				rp, err := instcmp.Prepare(sc.Target)
				if err != nil {
					b.Fatal(err)
				}
				opt := &instcmp.Options{Mode: v.mode, Algorithm: instcmp.AlgoSignature}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := instcmp.ComparePrepared(lp, rp, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCompareAPI measures the public API end to end, normalization
// included.
func BenchmarkCompareAPI(b *testing.B) {
	b.ReportAllocs()
	base, err := datasets.Generate(datasets.Bike, 2000, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	noise := experiments.Table2Noise
	noise.Seed = benchSeed
	sc := generator.Make(base, noise)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := instcmp.Compare(sc.Source, sc.Target, &instcmp.Options{
			Mode:      instcmp.OneToOne,
			Algorithm: instcmp.AlgoSignature,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
