package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), so spreads read the same as the acceptance check's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func loadResults(path string) (*resultsFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload across a file's runs.
func (f *resultsFile) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if m, ok := r.Workloads[workload].Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareCmd prints, per workload and metric, each side's median and
// quartiles and whether b differs from a by more than the metric's bound.
// A metric whose run-to-run spread (quartile distance over median) exceeds
// its bound on either side is unresolved, unless every run of b is better
// than every run of a, or worse than every run of a.
func compareCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	config := fs.String("config", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-config BENCHMARK.json] a.json b.json")
	}
	buf, err := os.ReadFile(*config)
	if err != nil {
		return err
	}
	var def benchmarkFile
	if err := json.Unmarshal(buf, &def); err != nil {
		return fmt.Errorf("%s: %w", *config, err)
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	type row struct {
		metricDef
		bound float64 // 0 = none
	}
	var rows []row
	for _, m := range def.EndToEnd {
		rows = append(rows, row{m.metricDef, m.Bound})
	}
	for _, m := range def.PerLayer {
		rows = append(rows, row{m, 0})
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median [q1, q3] (n)\tb median [q1, q3] (n)\tchange\tspread a/b\tverdict")
	for _, wl := range workloads {
		for _, r := range rows {
			xa, xb := a.values(wl.name, r.Name), b.values(wl.name, r.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			sa, sb := ratio(a3-a1, a2), ratio(b3-b1, b2)
			// worse is the relative change in the metric's bad direction.
			worse := ratio(b2-a2, a2)
			if r.Better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.1f%%\t%.1f%%/%.1f%%\t%s\n",
				wl.name, r.Name, a2, a1, a3, len(xa), b2, b1, b3, len(xb),
				100*ratio(b2-a2, a2), 100*sa, 100*sb, verdict(r.bound, worse, sa, sb, xa, xb, r.Better))
		}
	}
	return tw.Flush()
}

func verdict(bound, worse, spreadA, spreadB float64, xa, xb []float64, better string) string {
	if bound == 0 {
		return "no bound"
	}
	if spreadA > bound || spreadB > bound {
		switch {
		case separated(xb, xa, better):
			return "unresolved spread, every b run better"
		case separated(xa, xb, better):
			return "unresolved spread, every b run worse"
		}
		return "unresolved"
	}
	if worse > bound {
		return fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*bound)
	}
	return fmt.Sprintf("within bound (%.0f%%)", 100*bound)
}

// separated reports whether every run of x is better than every run of y.
func separated(x, y []float64, better string) bool {
	for _, u := range x {
		for _, v := range y {
			if (better == "higher") != (u > v) || u == v {
				return false
			}
		}
	}
	return true
}
