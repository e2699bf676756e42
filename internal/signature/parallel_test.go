package signature

// Worker-invariance tests for the produce/commit pipeline: the whole point
// of the design (DESIGN.md §12) is that Workers only changes wall-clock
// time, never the result. Scenarios are sized above minParallelRows so the
// phases genuinely fan out (asserted via the Stats block counters, so a
// silently-skipped gate fails the test), and their outcomes are pinned to
// the values the earlier sequential phase implementations produced.

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"instcmp/internal/datasets"
	"instcmp/internal/generator"
	"instcmp/internal/match"
	"instcmp/internal/strsim"
)

// TestRunBlocksOrderedCommit pins the pipeline helper itself: every block
// is produced exactly once, committed exactly once, and committed in
// ascending block order regardless of worker count; only fanned-out blocks
// are counted. A second produce appends into the recycled payload, as the
// signature phases do: commit must see exactly its own block's data, at
// one worker (where the payload really is recycled) and at several.
func TestRunBlocksOrderedCommit(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		const n = 97
		produced := make([]int, n)
		var committed []int
		var spare int
		fanned := runBlocks(workers, n, &spare,
			func() int { return 0 },
			func(state, _ int, b int) int {
				// Skew per-block work so completion order differs from
				// block order.
				x := state
				for i := 0; i < (b%7)*1000; i++ {
					x += i
				}
				produced[b]++
				return b
			},
			func(b int, got int) {
				if got != b {
					t.Fatalf("workers=%d: block %d committed result %d", workers, b, got)
				}
				committed = append(committed, b)
			})
		for b, c := range produced {
			if c != 1 {
				t.Errorf("workers=%d: block %d produced %d times", workers, b, c)
			}
		}
		if !slices.IsSorted(committed) || len(committed) != n {
			t.Errorf("workers=%d: committed %d blocks, order sorted=%v", workers, len(committed), slices.IsSorted(committed))
		}
		want := n
		if workers == 1 {
			want = 0
		}
		if fanned != want {
			t.Errorf("workers=%d: runBlocks reported %d fanned-out blocks, want %d", workers, fanned, want)
		}

		// Block b's payload holds b%5+1 copies of b.
		var buf []int
		runBlocks(workers, n, &buf, noState,
			func(_ struct{}, p []int, b int) []int {
				p = p[:0]
				for i := 0; i <= b%5; i++ {
					p = append(p, b)
				}
				return p
			},
			func(b int, p []int) {
				if len(p) != b%5+1 {
					t.Fatalf("workers=%d: block %d committed %d items, want %d", workers, b, len(p), b%5+1)
				}
				for _, v := range p {
					if v != b {
						t.Fatalf("workers=%d: block %d committed another block's item %d", workers, b, v)
					}
				}
			})
		if workers == 1 && (len(buf) != (n-1)%5+1 || buf[0] != n-1) {
			t.Errorf("workers=1: spare holds %v, want the last block's payload", buf)
		}
	}
}

// pinnedRun is a run's observable outcome, pinned bit-for-bit: scores as
// math.Float64bits.
type pinnedRun struct {
	score, afterSig           uint64
	pairs                     int
	sigMatches, compatMatches int
	envStats                  match.EnvStats
}

// invarianceScenarios are Table-2- and Table-3-shaped workloads large
// enough to cross the fan-out gates, plus a rescue-heavy and two
// partial-mode variants; the Bike cases are the benchmark's pairs-large
// Bike shapes, scaled to cross the gates.
var invarianceScenarios = []struct {
	label string
	name  datasets.Name
	rows  int
	noise generator.Noise
	mode  match.Mode
	opt   Options
	// wantCompleteBlocks / wantRescueTasks assert that the respective
	// phase actually fanned out for Workers > 1.
	wantCompleteBlocks bool
	wantRescueTasks    bool
	// want pins the outcome recorded from the separate sequential phase
	// implementations the pipeline replaced.
	want pinnedRun
}{
	{
		label: "table2-doct",
		name:  datasets.Doct, rows: 1500,
		noise: generator.Noise{CellPct: 0.05, NullReuse: 0.3},
		mode:  match.OneToOne,
		opt:   Options{Lambda: 0.5},
		want:  pinnedRun{0x3fe815f45e0b4e04, 0x3fe815f45e0b4e04, 1162, 1162, 0, match.EnvStats{PairAttempts: 1434, PairRejects: 0, ScoreEvals: 3758}},
	},
	{
		label: "table2-git-wide",
		name:  datasets.Git, rows: 1200,
		noise: generator.Noise{CellPct: 0.10},
		mode:  match.OneToOne,
		opt:   Options{Lambda: 0.5},
		want:  pinnedRun{0x3fc22f2364aa36d7, 0x3fbb85676da395c7, 182, 135, 47, match.EnvStats{PairAttempts: 264, PairRejects: 0, ScoreEvals: 581}},
	},
	{
		label: "table3-doct",
		name:  datasets.Doct, rows: 1200,
		noise: generator.Noise{CellPct: 0.05, NullReuse: 0.3, RandomPct: 0.10, RedundantPct: 0.10},
		mode:  match.ManyToMany,
		opt:   Options{Lambda: 0.5},
		// n-to-m never saturates, so every left row reaches completion.
		wantCompleteBlocks: true,
		want:               pinnedRun{0x3fe623732427ae58, 0x3fe623732427ae58, 1137, 1137, 0, match.EnvStats{PairAttempts: 5158, PairRejects: 3773, ScoreEvals: 3659}},
	},
	{
		label: "rescue-heavy",
		name:  datasets.Doct, rows: 1500,
		noise:              generator.Noise{CellPct: 0.25, NullReuse: 0.3},
		mode:               match.Functional,
		opt:                Options{Lambda: 0.5},
		wantRescueTasks:    true,
		wantCompleteBlocks: true,
		want:               pinnedRun{0x3fd0b70bb2445b8c, 0x3fd064945dc0bd4e, 474, 456, 18, match.EnvStats{PairAttempts: 5368, PairRejects: 3209, ScoreEvals: 3089}},
	},
	{
		label: "partial",
		name:  datasets.Doct, rows: 1200,
		noise: generator.Noise{CellPct: 0.15, NullReuse: 0.3},
		mode:  match.OneToOne,
		opt:   Options{Lambda: 0.5, Partial: true, MinPartialSig: 2},
		want:  pinnedRun{0x3fe9003a4114b520, 0x3fe8fc21ad9ff8b6, 1174, 1173, 1, match.EnvStats{PairAttempts: 1184, PairRejects: 10, ScoreEvals: 2347}},
	},
	{
		// pairs-large's Bike n-to-m shape: Table 3 noise, rescue-heavy.
		label: "table3-bike",
		name:  datasets.Bike, rows: 600,
		noise:              generator.Noise{CellPct: 0.05, NullReuse: 0.3, RandomPct: 0.10, RedundantPct: 0.10},
		mode:               match.ManyToMany,
		opt:                Options{Lambda: 0.5},
		wantRescueTasks:    true,
		wantCompleteBlocks: true,
		want:               pinnedRun{0x3fe2a1c93360ab58, 0x3fe2a1c93360ab58, 484, 484, 0, match.EnvStats{PairAttempts: 2014, PairRejects: 1360, ScoreEvals: 1622}},
	},
	{
		// pairs-large's Bike partial shape: n-to-m partial matching with
		// Levenshtein similarity on conflicting constants.
		label: "partial-bike-levenshtein",
		name:  datasets.Bike, rows: 520,
		noise:              generator.Noise{CellPct: 0.05, NullReuse: 0.3},
		mode:               match.ManyToMany,
		opt:                Options{Lambda: 0.5, Partial: true, ConstSim: strsim.Levenshtein},
		wantCompleteBlocks: true,
		want:               pinnedRun{0x3fe11fa02994f139, 0x3fe11fa02994f139, 82114, 82114, 0, match.EnvStats{PairAttempts: 989225, PairRejects: 907111, ScoreEvals: 164228}},
	},
}

// TestSignatureWorkerInvariance runs every scenario at Workers 1, 2, and 8
// and requires the score, the phase stats, and the EnvStats counters to
// match the pinned outcome and the full pair list to be identical across
// worker counts — not approximately, bit-for-bit.
func TestSignatureWorkerInvariance(t *testing.T) {
	for _, sc := range invarianceScenarios {
		t.Run(sc.label, func(t *testing.T) {
			base, err := datasets.Generate(sc.name, sc.rows, 42)
			if err != nil {
				t.Fatal(err)
			}
			noise := sc.noise
			noise.Seed = 42
			gen := generator.Make(base, noise)

			runWith := func(workers int) *Result {
				opt := sc.opt
				opt.Workers = workers
				res, err := Run(context.Background(), gen.Source, gen.Target, sc.mode, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := pinnedRun{
					score:         math.Float64bits(res.Score),
					afterSig:      math.Float64bits(res.Stats.ScoreAfterSig),
					pairs:         res.Env.NumPairs(),
					sigMatches:    res.Stats.SigMatches,
					compatMatches: res.Stats.CompatMatches,
					envStats:      res.Env.Stats,
				}
				if got != sc.want {
					t.Errorf("Workers=%d: outcome %+v, pinned %+v", workers, got, sc.want)
				}
				return res
			}

			seqRes := runWith(1)
			if seqRes.Stats.ScanBlocks != 0 || seqRes.Stats.RescueTasks != 0 || seqRes.Stats.CompleteBlocks != 0 {
				t.Errorf("Workers=1 reported fanned-out blocks: %+v", seqRes.Stats)
			}
			for _, workers := range []int{2, 8} {
				res := runWith(workers)
				if !slices.Equal(res.Env.Pairs(), seqRes.Env.Pairs()) {
					t.Errorf("Workers=%d: pair list diverges from the Workers=1 run", workers)
				}
				if res.Stats.Workers != workers {
					t.Errorf("Workers=%d: Stats.Workers = %d", workers, res.Stats.Workers)
				}
				if res.Stats.ScanBlocks == 0 {
					t.Errorf("Workers=%d: parallel scan never engaged (ScanBlocks = 0)", workers)
				}
				if sc.wantCompleteBlocks && res.Stats.CompleteBlocks == 0 {
					t.Errorf("Workers=%d: parallel completion never engaged", workers)
				}
				if sc.wantRescueTasks && res.Stats.RescueTasks == 0 {
					t.Errorf("Workers=%d: parallel rescue never engaged", workers)
				}
			}
		})
	}
}

// TestSignatureWorkerInvarianceAblations pins invariance under the ablation
// switches too: the committer replays the sequential decision sequence no
// matter which greedy refinements are on.
func TestSignatureWorkerInvarianceAblations(t *testing.T) {
	base, err := datasets.Generate(datasets.Doct, 1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	gen := generator.Make(base, generator.Noise{CellPct: 0.15, NullReuse: 0.3, Seed: 7})
	for _, abl := range []struct {
		label string
		opt   Options
	}{
		{"no-rescue", Options{Lambda: 0.5, DisableRescue: true}},
		{"single-round", Options{Lambda: 0.5, SingleRound: true}},
		{"no-gain-guard", Options{Lambda: 0.5, NoGainGuard: true}},
	} {
		t.Run(abl.label, func(t *testing.T) {
			var ref *Result
			for _, workers := range []int{1, 4} {
				opt := abl.opt
				opt.Workers = workers
				res, err := Run(context.Background(), gen.Source, gen.Target, match.Functional, opt)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if res.Score != ref.Score || res.Stats.SigMatches != ref.Stats.SigMatches {
					t.Errorf("Workers=%d: score %.17g matches %d, sequential %.17g / %d",
						workers, res.Score, res.Stats.SigMatches, ref.Score, ref.Stats.SigMatches)
				}
				if !slices.Equal(res.Env.Pairs(), ref.Env.Pairs()) {
					t.Errorf("Workers=%d: pair list diverges from sequential run", workers)
				}
			}
		})
	}
}

// TestParallelRunCancellation: a canceled fanned-out run terminates
// promptly, reports StoppedCanceled, and leaves a usable (prefix) match,
// like an inline run.
func TestParallelRunCancellation(t *testing.T) {
	base, err := datasets.Generate(datasets.Doct, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	gen := generator.Make(base, generator.Noise{CellPct: 0.25, NullReuse: 0.3, Seed: 42})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan *Result, 1)
	go func() {
		res, err := Run(ctx, gen.Source, gen.Target, match.Functional, Options{Lambda: 0.5, Workers: 4})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res == nil {
			t.Fatal("run failed")
		}
		if res.Stopped != StoppedCanceled {
			t.Errorf("Stopped = %q, want %q", res.Stopped, StoppedCanceled)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled parallel run did not return")
	}
}
