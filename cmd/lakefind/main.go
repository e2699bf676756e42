// Command lakefind ranks the datasets of a data lake by similarity to an
// example instance — the dataset-discovery application of the paper's
// introduction ("find more census data or medical records"), working
// without keys and with labeled nulls.
//
// Usage:
//
//	lakefind [flags] <example> <lake-dir>
//	lakefind -build-index -index lake.idx <lake-dir>
//
// The example is a CSV file or a directory of CSVs (one relation per
// file). The lake directory contains one dataset per entry: either a CSV
// file or a subdirectory of CSVs.
//
// With -build-index, lakefind sketches every dataset once and persists a
// sketch index (internal/lakeindex). A later query run with -index probes
// that index to shortlist the likely candidates and loads and compares ONLY
// the shortlist — a cold start over a 1k-dataset lake parses a handful of
// CSVs instead of a thousand. Datasets the index has never seen are still
// loaded and compared (a stale index costs comparisons, not recall), and an
// unreadable, corrupted, or version-mismatched index degrades to the plain
// full scan with a warning, never a crash.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"instcmp"
	"instcmp/internal/lake"
	"instcmp/internal/lakeindex"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lakefind:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lakefind", flag.ContinueOnError)
	var (
		minOverlap  = fs.Float64("min-overlap", 0.05, "constant-overlap prefilter threshold (0 disables)")
		top         = fs.Int("top", 0, "print only the best N candidates (0 = all; with -index, also sizes the shortlist)")
		anonNulls   = fs.Bool("anon-nulls", false, "treat empty CSV cells as fresh labeled nulls")
		workers     = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent candidate comparisons (ranking order is identical for every value)")
		sigWorkers  = fs.Int("sig-workers", 1, "signature-pipeline workers inside each comparison (1 = sequential; raise for lakes with few large datasets)")
		lambda      = fs.Float64("lambda", -1, "null-to-constant penalty λ in [0, 1); -1 = paper default, 0 = nulls matched to constants score nothing")
		candTimeout = fs.Duration("candidate-timeout", 0, "per-candidate comparison budget; a candidate over budget degrades to its prefilter overlap (0 = none)")
		timeout     = fs.Duration("timeout", 0, "overall ranking deadline; exceeding it aborts the ranking (0 = none)")
		stats       = fs.Bool("stats", false, "print per-candidate comparison statistics after the ranking")
		indexPath   = fs.String("index", "", "sketch index file: load and compare only an index-shortlisted subset of the lake (see -build-index)")
		buildIndex  = fs.Bool("build-index", false, "sketch every dataset of <lake-dir> and write the index to -index instead of ranking")
		discover    = fs.Bool("discover-mapping", false, "compare drifted candidates under discovered attribute mappings (renamed/reordered columns)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *buildIndex {
		if *indexPath == "" {
			return fmt.Errorf("-build-index requires -index <file>")
		}
		if fs.NArg() != 1 {
			fs.Usage()
			return fmt.Errorf("expected <lake-dir>, got %d arguments", fs.NArg())
		}
		return runBuildIndex(fs.Arg(0), *indexPath, *anonNulls, out)
	}

	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("expected <example> <lake-dir>, got %d arguments", fs.NArg())
	}

	opt := lake.Options{
		MinValueOverlap:     *minOverlap,
		Workers:             *workers,
		SigWorkers:          *sigWorkers,
		PerCandidateTimeout: *candTimeout,
		TopK:                *top,
		DiscoverMapping:     *discover,
	}
	switch {
	case *lambda == 0:
		opt.ExplicitZeroLambda = true
	case *lambda > 0:
		opt.Lambda = *lambda
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// An index that fails to load is a warning, not an error: the full scan
	// is always available and always correct.
	var ix *lakeindex.Index
	if *indexPath != "" {
		var err error
		ix, err = lakeindex.ReadFile(*indexPath)
		if err != nil {
			fmt.Fprintf(out, "index %s unusable (%v); falling back to full scan\n", *indexPath, err)
			ix = nil
		}
		// An index built under different read options sketched a different
		// feature stream (e.g. -anon-nulls excludes former empty cells from
		// features): probing it would silently mis-rank, so warn and scan.
		if want := readFlags(*anonNulls); ix != nil && ix.Flags() != want {
			fmt.Fprintf(out, "index %s was built with read options %q, this query uses %q; ignoring it and falling back to full scan (rebuild with -build-index)\n",
				*indexPath, ix.Flags(), want)
			ix = nil
		}
	}

	start := time.Now()
	example, err := load(fs.Arg(0), *anonNulls)
	if err != nil {
		return err
	}
	res, err := rankLake(ctx, example, fs.Arg(1), ix, opt, *anonNulls, start, out)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%-30s  %9s  %8s\n", "dataset", "similarity", "overlap")
	for i, r := range res {
		if *top > 0 && i >= *top {
			break
		}
		score := fmt.Sprintf("%.4f", r.Score)
		switch {
		case r.Pruned:
			score = "(pruned)"
		case r.TimedOut:
			score = "(timeout)"
		}
		fmt.Fprintf(out, "%-30s  %9s  %8.3f\n", r.Name, score, r.Overlap)
	}
	if *stats {
		fmt.Fprintln(out)
		for _, r := range res {
			if r.Stats == nil {
				continue // pruned before comparison: nothing to report
			}
			s := r.Stats
			fmt.Fprintf(out, "stats %-24s  sig=%d compat=%d attempts=%d rejects=%d evals=%d search=%v\n",
				r.Name, s.SigMatches, s.CompatMatches, s.PairAttempts, s.PairRejects, s.ScoreEvals, s.SearchTime)
		}
	}
	return nil
}

// datasetNames lists the lake directory's dataset entries (CSV files and
// subdirectories), without loading anything.
func datasetNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no datasets found in %s", dir)
	}
	return names, nil
}

// loadLake loads the named datasets from the lake directory, reporting (and
// skipping) unreadable ones.
func loadLake(dir string, names []string, anon bool, out io.Writer) []lake.Candidate {
	var cands []lake.Candidate
	for _, name := range names {
		in, err := load(filepath.Join(dir, name), anon)
		if err != nil {
			fmt.Fprintf(out, "skipping %s: %v\n", name, err)
			continue
		}
		cands = append(cands, lake.Candidate{Name: name, Instance: in})
	}
	return cands
}

// rankLake ranks the lake directory through lake.RankThroughIndex. Without
// an index every dataset is loaded and compared. With one, the index is
// probed before any candidate CSV is touched: only shortlisted datasets
// (plus datasets the index has never seen) are parsed and compared, and the
// rest are reported pruned without being read at all — the cold-start
// payoff of a persisted index.
func rankLake(ctx context.Context, example *instcmp.Instance, dir string, ix *lakeindex.Index, opt lake.Options, anon bool, start time.Time, out io.Writer) ([]lake.Result, error) {
	names, err := datasetNames(dir)
	if err != nil {
		return nil, err
	}
	// A nil *Index inside the interface would defeat the nil check that
	// selects the full scan, so only a loaded index becomes a Searcher.
	var idx lakeindex.Searcher
	if ix != nil {
		idx = ix
	}
	query := func() (*lakeindex.Sketch, error) {
		prep, err := instcmp.Prepare(example)
		if err != nil {
			return nil, err
		}
		return lakeindex.NewSketch(prep.SketchFeatures()), nil
	}
	compared := 0
	res, st, err := lake.RankThroughIndex(names, idx, query, opt, func(short []int) ([]lake.Result, error) {
		shortNames := make([]string, len(short))
		for k, i := range short {
			shortNames[k] = names[i]
		}
		cands := loadLake(dir, shortNames, anon, out)
		compared = len(cands)
		return lake.Rank(ctx, example, cands, opt)
	})
	switch {
	case err != nil:
		return nil, err
	case len(res) == 0:
		return nil, fmt.Errorf("no datasets found in %s", dir)
	case ix != nil && st.FullScan:
		fmt.Fprintf(out, "index: lake of %d datasets fits the shortlist; comparing everything\n", len(names))
	case ix != nil:
		fmt.Fprintf(out, "index: compared %d of %d datasets (probed %d, widened=%v, unindexed=%d) in %v\n",
			compared, len(names), st.Probed, st.Widened, st.Unindexed, time.Since(start).Round(time.Millisecond))
	}
	return res, nil
}

// runBuildIndex sketches every dataset of the lake and persists the index.
func runBuildIndex(dir, indexPath string, anon bool, out io.Writer) error {
	start := time.Now()
	names, err := datasetNames(dir)
	if err != nil {
		return err
	}
	var prepared []lake.PreparedCandidate
	for _, name := range names {
		in, err := load(filepath.Join(dir, name), anon)
		if err != nil {
			fmt.Fprintf(out, "skipping %s: %v\n", name, err)
			continue
		}
		p, err := instcmp.Prepare(in)
		if err != nil {
			fmt.Fprintf(out, "skipping %s: %v\n", name, err)
			continue
		}
		prepared = append(prepared, lake.PreparedCandidate{Name: name, Prepared: p})
	}
	if len(prepared) == 0 {
		return fmt.Errorf("no datasets found in %s", dir)
	}
	ix, err := lake.BuildIndex(prepared)
	if err != nil {
		return err
	}
	ix = ix.WithFlags(readFlags(anon))
	if err := ix.WriteFile(indexPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "index: wrote %d sketches to %s in %v\n",
		ix.Len(), indexPath, time.Since(start).Round(time.Millisecond))
	return nil
}

// readFlags encodes the CSV read options that shape the sketch feature
// stream; persisted with -build-index and compared at query time.
func readFlags(anon bool) lakeindex.ReadFlags {
	var f lakeindex.ReadFlags
	if anon {
		f |= lakeindex.FlagAnonymousNulls
	}
	return f
}

func load(path string, anon bool) (*instcmp.Instance, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	opt := instcmp.CSVOptions{AnonymousNulls: anon}
	if info.IsDir() {
		return instcmp.LoadCSVDir(path, opt)
	}
	return instcmp.LoadCSV(path, opt)
}
