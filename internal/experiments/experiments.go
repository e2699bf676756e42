// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 7). Each RunTableN/RunFigureN function returns typed rows
// that cmd/experiments renders in the paper's layout and that the benchmark
// harness asserts shape properties on. Absolute timings depend on the
// machine; the shape — who wins, by what order of magnitude, where the
// scores land — is what reproduction targets (see EXPERIMENTS.md).
package experiments

import (
	"context"
	"time"

	"instcmp/internal/datasets"
	"instcmp/internal/exact"
	"instcmp/internal/generator"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/score"
	"instcmp/internal/signature"
)

// Config controls experiment scale and budgets.
type Config struct {
	// Seed drives every generator; equal seeds reproduce runs exactly.
	Seed int64
	// Lambda is the null-to-constant penalty (0 means score.DefaultLambda).
	Lambda float64
	// ExactMaxRows runs the exact algorithm only on configurations whose
	// per-side row count is at most this; larger configurations report
	// the score by construction instead, exactly like the paper's
	// 8-hour-timeout entries (marked with *).
	ExactMaxRows int
	// ExactTimeout bounds each exact run (0 = a generous default).
	ExactTimeout time.Duration
	// ExactMaxNodes bounds each exact run's search nodes (0 = unbounded).
	ExactMaxNodes int64
	// ExactNoWarmStart disables the exact search's signature warm start
	// (ablation; never changes scores, only wall-clock time).
	ExactNoWarmStart bool
	// SigWorkers is the signature pipeline's worker count inside each
	// comparison (0 = GOMAXPROCS, 1 = sequential). Scores are
	// bit-identical for every value; only wall-clock time changes.
	SigWorkers int
}

func (c Config) lambda() float64 {
	if c.Lambda == 0 {
		return score.DefaultLambda
	}
	return c.Lambda
}

// sigOpts bundles the signature-algorithm options every experiment uses.
func (c Config) sigOpts() signature.Options {
	return signature.Options{Lambda: c.lambda(), Workers: c.SigWorkers}
}

func (c Config) exactOpts() exact.Options {
	to := c.ExactTimeout
	if to == 0 {
		to = 5 * time.Minute
	}
	return exact.Options{
		Lambda:      c.lambda(),
		Timeout:     to,
		MaxNodes:    c.ExactMaxNodes,
		SigWorkers:  c.SigWorkers,
		NoWarmStart: c.ExactNoWarmStart,
	}
}

// Table1Row is one line of Table 1: dataset statistics.
type Table1Row struct {
	Dataset     string
	Rows        int
	DistinctVal int
	Attrs       int
}

// RunTable1 regenerates Table 1 (statistics of the original datasets).
// rows scales every dataset; 0 uses the paper's sizes.
func RunTable1(cfg Config, rows int) ([]Table1Row, error) {
	var out []Table1Row
	for _, name := range datasets.All {
		in, err := datasets.Generate(name, rows, cfg.Seed)
		if err != nil {
			return nil, err
		}
		st := in.Stats()
		out = append(out, Table1Row{
			Dataset:     string(name),
			Rows:        st.Tuples,
			DistinctVal: st.DistinctVals,
			Attrs:       st.MaxArity,
		})
	}
	return out, nil
}

// SideStats summarizes one side of a comparison scenario the way Tables 2
// and 3 report them (#T, #C, #V).
type SideStats struct {
	Tuples, Consts, Nulls int
}

func sideStats(in *model.Instance) SideStats {
	st := in.Stats()
	return SideStats{Tuples: st.Tuples, Consts: st.ConstCells, Nulls: st.NullCells}
}

// ScoreRow is one line of Table 2 or Table 3: exact-vs-signature scores and
// timings for one dataset at one size.
type ScoreRow struct {
	Dataset        string
	Rows           int
	Source, Target SideStats
	// ExScore is the reference score: the exact algorithm's when it ran,
	// otherwise the score by construction (ByConstruction true, the
	// paper's * rows).
	ExScore        float64
	ByConstruction bool
	// ExExhaustive reports whether the exact run explored its full
	// search space within its budget.
	ExExhaustive bool
	SigScore     float64
	Diff         float64
	SigTime      time.Duration
	ExTime       time.Duration
}

// scoreRow runs one Table 2/3 configuration.
func scoreRow(cfg Config, name datasets.Name, rows int, noise generator.Noise, mode match.Mode) (ScoreRow, error) {
	base, err := datasets.Generate(name, rows, cfg.Seed)
	if err != nil {
		return ScoreRow{}, err
	}
	noise.Seed = cfg.Seed + int64(rows)
	sc := generator.Make(base, noise)

	row := ScoreRow{
		Dataset: string(name),
		Rows:    rows,
		Source:  sideStats(sc.Source),
		Target:  sideStats(sc.Target),
	}

	start := time.Now()
	sig, err := signature.Run(context.Background(), sc.Source, sc.Target, mode, cfg.sigOpts())
	if err != nil {
		return ScoreRow{}, err
	}
	row.SigTime = time.Since(start)
	row.SigScore = sig.Score

	if cfg.ExactMaxRows > 0 && rows <= cfg.ExactMaxRows {
		start = time.Now()
		ex, err := exact.Run(context.Background(), sc.Source, sc.Target, mode, cfg.exactOpts())
		if err != nil {
			return ScoreRow{}, err
		}
		row.ExTime = time.Since(start)
		row.ExScore = ex.Score
		row.ExExhaustive = ex.Exhaustive
		// A budget-capped exact run can trail the constructed
		// reference; report the best lower bound we hold. An
		// exhaustive run IS the optimum and is never overridden.
		if !ex.Exhaustive {
			if ref, err := sc.BestKnownScore(cfg.lambda(), mode); err == nil && ref > row.ExScore {
				row.ExScore = ref
				row.ByConstruction = true
			}
		}
	} else {
		ref, err := sc.BestKnownScore(cfg.lambda(), mode)
		if err != nil {
			return ScoreRow{}, err
		}
		row.ExScore = ref
		row.ByConstruction = true
	}
	row.Diff = row.ExScore - row.SigScore
	if row.Diff < 0 {
		row.Diff = -row.Diff
	}
	return row, nil
}

// Table2Noise is the paper's Table 2 workload: modCell with C%=5.
var Table2Noise = generator.Noise{CellPct: 0.05, NullReuse: 0.3}

// RunTable2 regenerates Table 2: Exact vs Signature under modCell 5% noise
// with functional and injective (1-to-1) mappings, for the Doct, Bike, and
// Git datasets at the given sizes.
func RunTable2(cfg Config, sizes []int) ([]ScoreRow, error) {
	return runScoreTable(cfg, sizes, Table2Noise, match.OneToOne)
}

// Table3Noise is the paper's Table 3 workload: modCell 5% plus 10% random
// and 10% redundant tuples.
var Table3Noise = generator.Noise{CellPct: 0.05, NullReuse: 0.3, RandomPct: 0.10, RedundantPct: 0.10}

// RunTable3 regenerates Table 3: Exact vs Signature under
// addRandomAndRedundant noise with non-functional, non-injective (n-to-m)
// mappings.
func RunTable3(cfg Config, sizes []int) ([]ScoreRow, error) {
	return runScoreTable(cfg, sizes, Table3Noise, match.ManyToMany)
}

func runScoreTable(cfg Config, sizes []int, noise generator.Noise, mode match.Mode) ([]ScoreRow, error) {
	var out []ScoreRow
	for _, name := range []datasets.Name{datasets.Doct, datasets.Bike, datasets.Git} {
		for _, rows := range sizes {
			row, err := scoreRow(cfg, name, rows, noise, mode)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// Fig8Point is one point of Figure 8: signature score difference versus the
// fraction of changed cells.
type Fig8Point struct {
	Dataset string
	CellPct float64
	Diff    float64
}

// RunFigure8 regenerates Figure 8: the impact of C% on the signature
// algorithm's score difference, on 1k-row instances (rows parameter; 0
// means the paper's 1000).
func RunFigure8(cfg Config, rows int, pcts []float64) ([]Fig8Point, error) {
	if rows == 0 {
		rows = 1000
	}
	if len(pcts) == 0 {
		pcts = []float64{0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}
	}
	var out []Fig8Point
	for _, name := range []datasets.Name{datasets.Bike, datasets.Doct, datasets.Git} {
		base, err := datasets.Generate(name, rows, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, pct := range pcts {
			noise := generator.Noise{CellPct: pct, NullReuse: 0.3, Seed: cfg.Seed + int64(pct*1000)}
			sc := generator.Make(base, noise)
			gold, err := sc.BestKnownScore(cfg.lambda(), match.OneToOne)
			if err != nil {
				return nil, err
			}
			sig, err := signature.Run(context.Background(), sc.Source, sc.Target, match.OneToOne, cfg.sigOpts())
			if err != nil {
				return nil, err
			}
			d := gold - sig.Score
			if d < 0 {
				d = -d
			}
			out = append(out, Fig8Point{Dataset: string(name), CellPct: pct, Diff: d})
		}
	}
	return out, nil
}

// Table4Row is one line of Table 4: the signature algorithm's ablation —
// how many matches each phase discovers and the score after each phase.
type Table4Row struct {
	Dataset    string
	PctSig     float64 // % of matches from the signature-based step
	PctExact   float64 // % of matches from the completion step
	ScoreSig   float64 // score using only signature-based matches
	ScoreFinal float64
}

// RunTable4 regenerates Table 4 on 1k-row addRandomAndRedundant scenarios.
func RunTable4(cfg Config, rows int) ([]Table4Row, error) {
	if rows == 0 {
		rows = 1000
	}
	var out []Table4Row
	for _, name := range []datasets.Name{datasets.Doct, datasets.Bike, datasets.Git} {
		base, err := datasets.Generate(name, rows, cfg.Seed)
		if err != nil {
			return nil, err
		}
		noise := Table3Noise
		noise.Seed = cfg.Seed
		sc := generator.Make(base, noise)
		sig, err := signature.Run(context.Background(), sc.Source, sc.Target, match.ManyToMany, cfg.sigOpts())
		if err != nil {
			return nil, err
		}
		total := sig.Stats.SigMatches + sig.Stats.CompatMatches
		row := Table4Row{
			Dataset:    string(name),
			ScoreSig:   sig.Stats.ScoreAfterSig,
			ScoreFinal: sig.Score,
		}
		if total > 0 {
			row.PctSig = 100 * float64(sig.Stats.SigMatches) / float64(total)
			row.PctExact = 100 * float64(sig.Stats.CompatMatches) / float64(total)
		}
		out = append(out, row)
	}
	return out, nil
}
