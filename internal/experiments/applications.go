package experiments

import (
	"context"
	"time"

	"instcmp"
	"instcmp/internal/cleaning"
	"instcmp/internal/datasets"
	"instcmp/internal/exchange"
	"instcmp/internal/generator"
	"instcmp/internal/match"
	"instcmp/internal/signature"
	"instcmp/internal/versioning"
)

// Table5Row is one line of Table 5: a cleaning system's quality under the
// three metrics.
type Table5Row struct {
	Dataset  string
	System   string
	F1       float64
	F1Inst   float64
	SigScore float64
}

// RunTable5 regenerates Table 5: clean Bus data, inject 5% FD errors, run
// the four repair strategies, and evaluate each repair against the gold
// with F1, F1-Instance, and the signature score. rows 0 means the paper's
// 20000.
func RunTable5(cfg Config, rows int) ([]Table5Row, error) {
	if rows == 0 {
		rows = datasets.DefaultRows[datasets.Bus]
	}
	clean, err := datasets.Generate(datasets.Bus, rows, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var fds []cleaning.FD
	for _, fd := range datasets.BusFDs() {
		fds = append(fds, cleaning.FD{Relation: "Bus", Lhs: fd[0], Rhs: fd[1]})
	}
	dirty, errs := cleaning.InjectErrors(clean, fds, 0.05, cfg.Seed+1)

	var out []Table5Row
	for _, sys := range cleaning.Systems {
		repaired, err := cleaning.Repair(dirty, fds, sys, cfg.Seed+2)
		if err != nil {
			return nil, err
		}
		m := cleaning.Evaluate(clean, dirty, repaired, errs)
		// Repair-vs-gold comparison uses complete fully-injective
		// matches (Sec. 4.3, "Constraint-based Data Repair"). The
		// public Compare normalizes the shared null/tuple namespaces.
		res, err := instcmp.Compare(repaired, clean, &instcmp.Options{
			Mode:      instcmp.OneToOne,
			Algorithm: instcmp.AlgoSignature,
			Lambda:    cfg.lambda(),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Table5Row{
			Dataset:  "Bus",
			System:   string(sys),
			F1:       m.F1,
			F1Inst:   m.F1Inst,
			SigScore: res.Score,
		})
	}
	return out, nil
}

// Table6Row is one line of Table 6: a data-exchange solution compared
// against the gold core solution.
type Table6Row struct {
	Scenario          string
	Solution, Gold    SideStats
	MissingRows       int
	RowScore          float64
	SigScore          float64
	SolutionUniversal bool // hom(solution -> gold core) exists
	Elapsed           time.Duration
}

// RunTable6 regenerates Table 6 for the Doctors exchange scenario at the
// given source sizes (0 sizes means [1000, 2000] — scaled-down versions of
// the paper's 5627/21981-row instances; pass larger sizes to approach them).
func RunTable6(cfg Config, sizes []int) ([]Table6Row, error) {
	if len(sizes) == 0 {
		sizes = []int{1000, 2000}
	}
	var out []Table6Row
	for _, rows := range sizes {
		ex := exchange.NewDoctorsExchange(rows, cfg.Seed)
		gold, err := exchange.CoreSolution(ex.Source, ex.TargetSchema, ex.Gold)
		if err != nil {
			return nil, err
		}
		goldR := gold.RenameNulls("g·")
		cases := []struct {
			name string
			m    exchange.Mapping
		}{
			{"Doct-W", ex.Wrong},
			{"Doct-U1", ex.U1},
			{"Doct-U2", ex.U2},
		}
		for _, c := range cases {
			sol, err := exchange.Chase(ex.Source, ex.TargetSchema, c.m)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			sig, err := signature.Run(context.Background(), sol, goldR, match.Functional, cfg.sigOpts())
			if err != nil {
				return nil, err
			}
			out = append(out, Table6Row{
				Scenario:          c.name,
				Solution:          sideStats(sol),
				Gold:              sideStats(gold),
				MissingRows:       exchange.MissingRows(sol, gold),
				RowScore:          exchange.RowScore(sol, gold),
				SigScore:          sig.Score,
				SolutionUniversal: instcmp.HasHomomorphism(sol, goldR),
				Elapsed:           time.Since(start),
			})
		}
	}
	return out, nil
}

// Table7Row is one line of Table 7: diff vs signature on one versioning
// variant.
type Table7Row struct {
	Dataset   string
	Variant   string
	TO, TM    int // original / modified tuple counts
	Diff, Sig versioning.DiffStats
}

// RunTable7 regenerates Table 7: the Iris and NBA datasets, their
// S/R/RS/C variants, and the matched / left / right non-matching tuple
// counts for the diff baseline and the signature algorithm. rows scales the
// datasets (0 = paper sizes: Iris 120, NBA 9360).
func RunTable7(cfg Config, rows int) ([]Table7Row, error) {
	// Removal fractions implied by the paper's Table 7 row counts:
	// Iris 120 -> 99 (17.5%), NBA 9360 -> 9043 (3.39%).
	removeFrac := map[datasets.Name]float64{
		datasets.Iris: 0.175,
		datasets.Nba:  0.0339,
	}
	var out []Table7Row
	for _, name := range []datasets.Name{datasets.Iris, datasets.Nba} {
		base, err := datasets.Generate(name, rows, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, variant := range versioning.Variants {
			mod, err := versioning.MakeVariant(base, variant, removeFrac[name], cfg.Seed+7)
			if err != nil {
				return nil, err
			}
			res, err := instcmp.Compare(base, mod, &instcmp.Options{
				Mode:         instcmp.OneToOne,
				Algorithm:    instcmp.AlgoSignature,
				Lambda:       cfg.lambda(),
				AlignSchemas: true,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, Table7Row{
				Dataset: string(name),
				Variant: string(variant),
				TO:      base.NumTuples(),
				TM:      mod.NumTuples(),
				Diff:    versioning.LineDiff(base, mod),
				Sig: versioning.DiffStats{
					Matched:       len(res.Pairs),
					LeftNonMatch:  len(res.LeftUnmatched),
					RightNonMatch: len(res.RightUnmatched),
				},
			})
		}
	}
	return out, nil
}

// NullAttrsPoint is one point of the null-attribute ablation (the tech-
// report companion of Sec. 7.1): signature runtime and score difference as
// the noise concentrates in more attributes.
type NullAttrsPoint struct {
	Dataset   string
	NullAttrs int
	Diff      float64
	SigTime   time.Duration
}

// RunAblationNullAttrs measures how the number of null-bearing attributes
// affects the signature algorithm: the same cell budget (5% of all cells)
// is spread over 1..k attributes of the Bike dataset.
func RunAblationNullAttrs(cfg Config, rows int) ([]NullAttrsPoint, error) {
	if rows == 0 {
		rows = 1000
	}
	base, err := datasets.Generate(datasets.Bike, rows, cfg.Seed)
	if err != nil {
		return nil, err
	}
	arity := base.Relations()[0].Arity()
	var out []NullAttrsPoint
	for k := 1; k <= arity; k++ {
		// Spread the same overall cell budget (5% of all cells) over
		// the first k attributes.
		pct := 0.05 * float64(arity) / float64(k)
		if pct > 1 {
			pct = 1
		}
		cols := make([]int, k)
		for i := range cols {
			cols[i] = i
		}
		sc := generator.Make(base, generator.Noise{
			CellPct:   pct,
			NullShare: 1.0, // this ablation is about null placement
			Columns:   cols,
			Seed:      cfg.Seed + int64(k),
		})
		gold, err := sc.GoldScore(cfg.lambda())
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sig, err := signature.Run(context.Background(), sc.Source, sc.Target, match.OneToOne, cfg.sigOpts())
		if err != nil {
			return nil, err
		}
		d := gold - sig.Score
		if d < 0 {
			d = -d
		}
		out = append(out, NullAttrsPoint{
			Dataset:   string(datasets.Bike),
			NullAttrs: k,
			Diff:      d,
			SigTime:   time.Since(start),
		})
	}
	return out, nil
}
