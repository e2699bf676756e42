// Command experiments regenerates the tables and figures of "Similarity
// Measures For Incomplete Database Instances" (EDBT 2024).
//
// Usage:
//
//	experiments [flags] <experiment> [<experiment> ...]
//	experiments [flags] all
//
// Experiments: table1 table2 table3 table4 table5 table6 table7 fig8
// ablation-nullattrs.
//
// Flags control scale so a laptop run finishes in minutes; pass
// -sizes/-rows matching the paper to reproduce full-scale numbers.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"instcmp/internal/experiments"
	"instcmp/internal/tablefmt"
)

func main() {
	var (
		seed      = flag.Int64("seed", 42, "random seed for all generators")
		lambda    = flag.Float64("lambda", 0.5, "null-to-constant penalty λ (0 ≤ λ < 1)")
		sizes     = flag.String("sizes", "500,1000,5000", "per-side row counts for tables 2 and 3 (paper: 500,1000,5000,10000,100000)")
		rows      = flag.Int("rows", 1000, "row count for table 4, fig 8, and the null-attribute ablation")
		busRows   = flag.Int("bus-rows", 20000, "row count for table 5 (paper: 20000)")
		exSizes   = flag.String("exchange-sizes", "1000,2000", "source sizes for table 6")
		verRows   = flag.Int("versioning-rows", 0, "row count for table 7 (0 = paper sizes: Iris 120, NBA 9360)")
		exactRows = flag.Int("exact-max-rows", 1000, "run the exact algorithm for configurations up to this many rows (0 = never; larger rows report the score by construction, the paper's *)")
		exactTO   = flag.Duration("exact-timeout", 60*time.Second, "budget per exact run")
		sigW      = flag.Int("sig-workers", 0, "signature-pipeline workers per comparison (0 = GOMAXPROCS, 1 = sequential; scores are identical either way)")
		noWarm    = flag.Bool("exact-no-warm-start", false, "disable the exact search's signature warm start (ablation)")
		stats     = flag.Bool("stats", false, "print cumulative engine counters (expvar) after each experiment")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Config{
		Seed:             *seed,
		Lambda:           *lambda,
		ExactMaxRows:     *exactRows,
		ExactTimeout:     *exactTO,
		ExactNoWarmStart: *noWarm,
		SigWorkers:       *sigW,
	}

	args := flag.Args()
	if len(args) == 1 && args[0] == "all" {
		args = []string{"table1", "table2", "table3", "table4", "table5", "table6", "table7", "fig8", "ablation-nullattrs"}
	}
	for _, name := range args {
		start := time.Now()
		var err error
		switch name {
		case "table1":
			err = runTable1(cfg)
		case "table2":
			err = runScores(cfg, 2, parseSizes(*sizes))
		case "table3":
			err = runScores(cfg, 3, parseSizes(*sizes))
		case "table4":
			err = runTable4(cfg, *rows)
		case "table5":
			err = runTable5(cfg, *busRows)
		case "table6":
			err = runTable6(cfg, parseSizes(*exSizes))
		case "table7":
			err = runTable7(cfg, *verRows)
		case "fig8":
			err = runFig8(cfg, *rows)
		case "ablation-nullattrs":
			err = runNullAttrs(cfg, *rows)
		default:
			err = fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *stats {
			printEngineStats(os.Stdout)
		}
		fmt.Printf("(%s finished in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// printEngineStats dumps the engines' cumulative expvar counters — the same
// maps a long-running process would expose over /debug/vars.
func printEngineStats(w io.Writer) {
	for _, name := range []string{"instcmp.api", "instcmp.exact", "instcmp.signature", "instcmp.lake"} {
		m, ok := expvar.Get(name).(*expvar.Map)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s:", name)
		m.Do(func(kv expvar.KeyValue) {
			fmt.Fprintf(w, " %s=%s", kv.Key, kv.Value)
		})
		fmt.Fprintln(w)
	}
}

func parseSizes(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "experiments: bad size %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func runTable1(cfg experiments.Config) error {
	rows, err := experiments.RunTable1(cfg, 0)
	if err != nil {
		return err
	}
	t := tablefmt.New("Table 1: Statistics for the (synthesized) datasets.",
		"Dataset", "Rows", "#Distinct val.", "Attrs")
	for _, r := range rows {
		t.Add(r.Dataset, r.Rows, r.DistinctVal, r.Attrs)
	}
	t.Render(os.Stdout)
	return nil
}

func runScores(cfg experiments.Config, table int, sizes []int) error {
	var rows []experiments.ScoreRow
	var err error
	title := "Table 2: Exact (Ex) vs Signature (Sig). Noise: 5% modCell, functional and injective (1 to 1)."
	if table == 2 {
		rows, err = experiments.RunTable2(cfg, sizes)
	} else {
		title = "Table 3: Exact (Ex) vs Signature (Sig). Noise: 5% + addRandomAndRedundant, non-functional and non-injective (n to m)."
		rows, err = experiments.RunTable3(cfg, sizes)
	}
	if err != nil {
		return err
	}
	t := tablefmt.New(title+"\n* = score by construction (exact not run at this size)",
		"Data", "#T", "#C", "#V", "#T'", "#C'", "#V'", "Ex Score", "Sig Score", "Diff", "Sig T(s)", "Ex T(s)")
	for _, r := range rows {
		ex := fmt.Sprintf("%.3f", r.ExScore)
		exT := "-"
		if r.ByConstruction {
			ex += "*"
		}
		if r.ExTime > 0 {
			exT = fmt.Sprintf("%.1f", r.ExTime.Seconds())
			if !r.ExExhaustive {
				exT += ">"
			}
		}
		t.AddStrings(r.Dataset,
			fmt.Sprint(r.Source.Tuples), fmt.Sprint(r.Source.Consts), fmt.Sprint(r.Source.Nulls),
			fmt.Sprint(r.Target.Tuples), fmt.Sprint(r.Target.Consts), fmt.Sprint(r.Target.Nulls),
			ex, fmt.Sprintf("%.3f", r.SigScore), fmt.Sprintf("%.3f", r.Diff),
			fmt.Sprintf("%.1f", r.SigTime.Seconds()), exT)
	}
	t.Render(os.Stdout)
	return nil
}

func runTable4(cfg experiments.Config, rows int) error {
	res, err := experiments.RunTable4(cfg, rows)
	if err != nil {
		return err
	}
	t := tablefmt.New("Table 4: Impact of CompatibleTuples in the Signature Algorithm.",
		"Dataset", "% Matches SB", "% Matches Ex", "Score SB", "Score Final")
	for _, r := range res {
		t.AddStrings(fmt.Sprintf("%s %d", r.Dataset, rows),
			fmt.Sprintf("%.2f", r.PctSig), fmt.Sprintf("%.2f", r.PctExact),
			fmt.Sprintf("%.3f", r.ScoreSig), fmt.Sprintf("%.3f", r.ScoreFinal))
	}
	t.Render(os.Stdout)
	return nil
}

func runTable5(cfg experiments.Config, rows int) error {
	res, err := experiments.RunTable5(cfg, rows)
	if err != nil {
		return err
	}
	t := tablefmt.New("Table 5: Data Cleaning — F1, F1 Instance, and Signature score.",
		"Dataset", "System", "F1", "F1 Inst.", "Sig Score")
	for _, r := range res {
		t.Add(r.Dataset, r.System, r.F1, r.F1Inst, r.SigScore)
	}
	t.Render(os.Stdout)
	return nil
}

func runTable6(cfg experiments.Config, sizes []int) error {
	res, err := experiments.RunTable6(cfg, sizes)
	if err != nil {
		return err
	}
	t := tablefmt.New("Table 6: Data Exchange — Wrong (W) and user (U1, U2) mappings vs the core solution (gold).",
		"Scenario", "#T", "#C", "#V", "Gold #T", "Gold #C", "Gold #V", "Miss. Rows", "Row Score", "Sig Score", "Universal")
	for _, r := range res {
		t.AddStrings(r.Scenario,
			fmt.Sprint(r.Solution.Tuples), fmt.Sprint(r.Solution.Consts), fmt.Sprint(r.Solution.Nulls),
			fmt.Sprint(r.Gold.Tuples), fmt.Sprint(r.Gold.Consts), fmt.Sprint(r.Gold.Nulls),
			fmt.Sprint(r.MissingRows),
			fmt.Sprintf("%.2f", r.RowScore), fmt.Sprintf("%.2f", r.SigScore),
			fmt.Sprint(r.SolutionUniversal))
	}
	t.Render(os.Stdout)
	return nil
}

func runTable7(cfg experiments.Config, rows int) error {
	res, err := experiments.RunTable7(cfg, rows)
	if err != nil {
		return err
	}
	t := tablefmt.New("Table 7: Data Versioning — diff vs Signature on S/R/RS/C variants.",
		"Orig.", "Mod.", "#TO", "#TM",
		"diff #M", "diff #LNM", "diff #RNM",
		"Sig #M", "Sig #LNM", "Sig #RNM")
	for _, r := range res {
		t.Add(r.Dataset, r.Dataset+"-"+r.Variant, r.TO, r.TM,
			r.Diff.Matched, r.Diff.LeftNonMatch, r.Diff.RightNonMatch,
			r.Sig.Matched, r.Sig.LeftNonMatch, r.Sig.RightNonMatch)
	}
	t.Render(os.Stdout)
	return nil
}

func runFig8(cfg experiments.Config, rows int) error {
	pts, err := experiments.RunFigure8(cfg, rows, nil)
	if err != nil {
		return err
	}
	t := tablefmt.New(fmt.Sprintf("Figure 8: Sig score difference vs %% of changed cells (instances of %d rows).", rows),
		"Dataset", "C%", "Sig Score Difference")
	for _, p := range pts {
		t.AddStrings(p.Dataset, fmt.Sprintf("%.0f", p.CellPct*100), fmt.Sprintf("%.4f", p.Diff))
	}
	t.Render(os.Stdout)
	return nil
}

func runNullAttrs(cfg experiments.Config, rows int) error {
	pts, err := experiments.RunAblationNullAttrs(cfg, rows)
	if err != nil {
		return err
	}
	t := tablefmt.New("Ablation: number of null-bearing attributes vs Signature (fixed 5% cell budget, Bike).",
		"Dataset", "#Null Attrs", "Score Diff", "Sig T(s)")
	for _, p := range pts {
		t.AddStrings(p.Dataset, fmt.Sprint(p.NullAttrs),
			fmt.Sprintf("%.4f", p.Diff), fmt.Sprintf("%.2f", p.SigTime.Seconds()))
	}
	t.Render(os.Stdout)
	return nil
}
