package signature

import (
	"context"
	"math"
	"testing"

	"instcmp/internal/datasets"
	"instcmp/internal/generator"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/strsim"
)

// counterPin is the part of a run that depends on the exact sequence of
// tryPair calls: the score bits, the phase split and the EnvStats
// counters. Any change to which candidates the passes attempt, or in what
// order, moves at least one of them.
type counterPin struct {
	score                     uint64
	sigMatches, compatMatches int
	attempts, rejects, evals  int64
}

// twoRelationBase joins a Doct and a Bike table into one instance, so one
// run covers a pass per relation and direction.
func twoRelationBase(t *testing.T) *model.Instance {
	t.Helper()
	in := model.NewInstance()
	for _, part := range []struct {
		name datasets.Name
		rows int
		seed int64
	}{{datasets.Doct, 700, 11}, {datasets.Bike, 600, 12}} {
		src, err := datasets.Generate(part.name, part.rows, part.seed)
		if err != nil {
			t.Fatal(err)
		}
		rel := src.Relations()[0]
		in.AddRelation(rel.Name, rel.Attrs...)
		for _, tu := range rel.Tuples {
			in.Append(rel.Name, tu.Values...)
		}
	}
	return in
}

// TestSignatureCountersPinned pins the attempt sequence of the signature
// passes on the benchmark's shapes at Workers 1 and 2. Scans of at least
// minParallelRows rows fan out at Workers 2, which the test asserts.
func TestSignatureCountersPinned(t *testing.T) {
	table2 := generator.Noise{CellPct: 0.05, NullReuse: 0.3}
	table3 := generator.Noise{CellPct: 0.05, NullReuse: 0.3, RandomPct: 0.10, RedundantPct: 0.10}
	for _, sc := range []struct {
		label string
		name  datasets.Name // "" selects twoRelationBase
		rows  int
		noise generator.Noise
		mode  match.Mode
		opt   Options
		want  counterPin
	}{
		{"doct-1to1", datasets.Doct, 900, table2, match.OneToOne, Options{Lambda: 0.5},
			counterPin{0x3fe7f7ced916872f, 691, 1, 848, 1, 2230}},
		{"bike-ntom", datasets.Bike, 700, table3, match.ManyToMany, Options{Lambda: 0.5},
			counterPin{0x3fe23058716db36a, 543, 0, 2294, 1572, 1808}},
		{"bike-partial-levenshtein", datasets.Bike, 100, table2, match.ManyToMany,
			Options{Lambda: 0.5, Partial: true, ConstSim: strsim.Levenshtein},
			counterPin{0x3fe1a7a7c52db15c, 3069, 0, 125712, 122643, 6138}},
		{"git-1to1", datasets.Git, 800, table2, match.OneToOne, Options{Lambda: 0.5},
			counterPin{0x3fd86cc273c411ac, 299, 15, 483, 7, 1089}},
		{"two-relations", "", 0, table2, match.OneToOne, Options{Lambda: 0.5},
			counterPin{0x3fe655e4ad90eac0, 955, 0, 1223, 0, 3133}},
		{"doct-single-round", datasets.Doct, 900, table2, match.Functional, Options{Lambda: 0.5, SingleRound: true},
			counterPin{0x3fe7f42ac7cb3509, 691, 1, 1227, 535, 2075}},
	} {
		t.Run(sc.label, func(t *testing.T) {
			var base *model.Instance
			if sc.name == "" {
				base = twoRelationBase(t)
			} else {
				var err error
				if base, err = datasets.Generate(sc.name, sc.rows, 21); err != nil {
					t.Fatal(err)
				}
			}
			noise := sc.noise
			noise.Seed = 21
			gen := generator.Make(base, noise)
			for _, workers := range []int{1, 2} {
				opt := sc.opt
				opt.Workers = workers
				res, err := Run(context.Background(), gen.Source, gen.Target, sc.mode, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := counterPin{
					score:         math.Float64bits(res.Score),
					sigMatches:    res.Stats.SigMatches,
					compatMatches: res.Stats.CompatMatches,
					attempts:      res.Env.Stats.PairAttempts,
					rejects:       res.Env.Stats.PairRejects,
					evals:         res.Env.Stats.ScoreEvals,
				}
				if got != sc.want {
					t.Errorf("Workers=%d: got %#v, pinned %#v", workers, got, sc.want)
				}
				if fansOut := workers > 1 && (sc.rows == 0 || sc.rows >= minParallelRows); fansOut != (res.Stats.ScanBlocks > 0) {
					t.Errorf("Workers=%d: ScanBlocks = %d, want fanned-out blocks: %v", workers, res.Stats.ScanBlocks, fansOut)
				}
			}
		})
	}
}
