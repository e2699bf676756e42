// Command bench is the repository's end-to-end benchmark. It drives the
// public entry points of instcmp from outside — one-shot and prepared
// comparisons, lake ranking through the sketch index, and the instcmp-serve
// handler over loopback HTTP — on inputs generated from a seed, checks every
// output, and reports the end-to-end and per-layer metrics that
// BENCHMARK.json names.
//
// Run it from the repository root (see README.md):
//
//	bash bench/run.sh --workload pairs-large --seed 1 --seconds 27 --trace 0
//	bash bench/run.sh -o results.json            # every workload, one child process each
//	bash bench/run.sh --trace 1 -spans spans.json
//	bash bench/run.sh compare a.json b.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// tiny shrinks every input so the smoke test runs each workload in
	// well under a second; golden scores apply only at full size.
	tiny bool
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	setupS            float64
	setupReps         int
	// lat gives the latency metrics and thr the throughput and allocation
	// metrics; they differ only for serve-mixed, whose latencies come from
	// its open-loop phase.
	lat, thr *phase
	spans    []Span
	layers   map[string]float64
	notes    []string // extra human-readable lines
}

type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
	// references computes the expected outputs with single-threaded
	// engines, outside any timed phase.
	references func(cfg config) (map[string]string, error)
}

var workloads = []workload{
	{"pairs-large", runPairsLarge, pairsLargeReferences},
	{"pairs-small", runPairsSmall, pairsSmallReferences},
	{"lake-rank", runLakeRank, lakeRankReferences},
	{"serve-mixed", runServeMixed, serveMixedReferences},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric with its unit and direction.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"alloc_mb_per_op", "MB/op", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer metrics; a workload that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{"prepare.ms_per_call", "ms", "lower"},
	{"prepare.alloc_kb_per_call", "KB", "lower"},
	{"schemamap.ms_per_call", "ms", "lower"},
	{"compare.normalize_ms", "ms", "lower"},
	{"compare.search_ms", "ms", "lower"},
	{"compare.explain_ms", "ms", "lower"},
	{"compare.alloc_kb_per_call", "KB", "lower"},
	{"signature.sig_phase_ms", "ms", "lower"},
	{"signature.compat_phase_ms", "ms", "lower"},
	{"signature.pair_accept_frac", "fraction", "higher"},
	{"signature.parallel_blocks", "count", "higher"},
	{"signature.score_evals", "count", "lower"},
	{"signature.sb_frac", "fraction", "higher"},
	{"exact.search_ms", "ms", "lower"},
	{"exact.nodes", "count", "lower"},
	{"exact.prunes_per_node", "ratio", "higher"},
	{"exact.exhaustive_frac", "fraction", "higher"},
	{"lakeindex.build_s", "s", "lower"},
	{"lakeindex.sketch_us", "us", "lower"},
	{"lakeindex.shortlist_us", "us", "lower"},
	{"lakeindex.probed", "count", "lower"},
	{"lakeindex.dynamic_add_us", "us", "lower"},
	{"lake.shortlist_size", "count", "lower"},
	{"lake.compare_ms_per_candidate", "ms", "lower"},
	{"lake.top10_recall", "fraction", "higher"},
	{"serve.compare_p50_ms", "ms", "lower"},
	{"serve.rank_p50_ms", "ms", "lower"},
	{"serve.write_p50_ms", "ms", "lower"},
	{"serve.handler_ms", "ms", "lower"},
	{"serve.http_overhead_ms", "ms", "lower"},
	{"serve.queue_waits_per_1k", "1/1000", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"runtime.gc_cycles_per_op", "1/op", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"loadgen.achieved_rps", "1/s", "higher"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run in this process (empty = every workload, each in its own child process)")
	seed := fs.Int64("seed", 1, "input seed; the default seed is also checked against testdata/golden.json")
	seconds := fs.Float64("seconds", 27, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	spans := fs.String("spans", "", "write the traced run's spans to this file")
	out := fs.String("o", "", "append this run's results to a results file (read by compare)")
	fs.Parse(os.Args[1:])
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	var err error
	if *name == "" {
		err = runAll(cfg, *spans, *out)
	} else {
		err = runOne(cfg, *name, *spans, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose outputs failed their checks; the result
// line has been printed.
var errIncorrect = errors.New("outputs failed their correctness checks")

// runOne runs one workload in this process, prints its metrics one per line
// and the result object as the last line.
func runOne(cfg config, name, spansPath string, w io.Writer) error {
	wl, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	o, err := wl.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	res, lines, err := report(cfg, name, o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if spansPath != "" && cfg.trace {
		if err := writeSpans(spansPath, name, o.spans); err != nil {
			return err
		}
	}
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(buf))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// report turns an outcome into the result object and the human-readable
// metric lines ("workload metric value unit", with sample counts).
func report(cfg config, name string, o *outcome) (result, []string, error) {
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	var lines []string
	add := func(d metricDef, v float64, note string) {
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		lines = append(lines, fmt.Sprintf("%s %s %.6g %s%s", name, d.Name, v, d.Unit, note))
	}
	if cfg.trace {
		for _, d := range perLayer {
			add(d, o.layers[d.Name], "")
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return res, nil, err
		}
		n := len(o.lat.lats)
		samples := fmt.Sprintf(" (n=%d", n)
		vals := map[string]float64{
			"setup_s":          o.setupS,
			"throughput_ops_s": o.thr.throughput(),
			"latency_p50_ms":   ms(percentile(o.lat.lats, 0.50)),
			"alloc_mb_per_op":  o.thr.allocMBPerOp(),
			"peak_rss_mb":      rss,
		}
		notes := map[string]string{
			"setup_s":          fmt.Sprintf(" (median of %d set-ups)", o.setupReps),
			"throughput_ops_s": fmt.Sprintf(" (n=%d ops in %.1fs)", o.thr.ops, o.thr.elapsed.Seconds()),
			"latency_p50_ms":   samples + ", p50)",
			"alloc_mb_per_op":  fmt.Sprintf(" (n=%d ops)", o.thr.ops),
			"peak_rss_mb":      " (VmHWM)",
		}
		for _, d := range endToEnd {
			add(d, vals[d.Name], notes[d.Name])
		}
		// Tail percentiles are printed but not gated: across runs on a
		// shared 2-CPU VM they move by more than the largest bound a
		// metric may have (see README.md). The p99 has ten samples beyond
		// it only from 1000 samples on.
		tails := []float64{0.90}
		if n >= 1000 {
			tails = append(tails, 0.99)
		}
		for _, q := range tails {
			lines = append(lines, fmt.Sprintf("%s latency_p%g_ms %.6g ms%s, p%g, not gated)", name, 100*q, ms(percentile(o.lat.lats, q)), samples, 100*q))
		}
	}
	lines = append(lines, o.notes...)
	lines = append(lines, fmt.Sprintf("%s failed_frac %.6g fraction (%d of %d checked outputs)",
		name, ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted))
	return res, lines, nil
}

// runRecord is one entry of a results file: every workload's result object
// from one full run.
type runRecord struct {
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Workloads map[string]result `json:"workloads"`
}

type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

// runAll runs every workload in its own child process, so each workload's
// peak RSS is its own, relays their lines, and appends the run to out.
func runAll(cfg config, spansPath, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rec := runRecord{Seed: cfg.seed, Trace: cfg.trace, Workloads: map[string]result{}}
	merged := map[string]json.RawMessage{}
	var failed []string
	for _, wl := range workloads {
		args := []string{
			"--workload", wl.name,
			"--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds.Seconds()),
			"--trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
		}
		tmp := ""
		if spansPath != "" && cfg.trace {
			tmp = spansPath + "." + wl.name + ".tmp"
			args = append(args, "-spans", tmp)
		}
		res, err := runChild(exe, args)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", wl.name, err))
		}
		if res != nil {
			rec.Workloads[wl.name] = *res
		}
		if tmp != "" {
			if buf, err := os.ReadFile(tmp); err == nil {
				merged[wl.name] = buf
			}
			os.Remove(tmp)
		}
	}
	if spansPath != "" && cfg.trace {
		buf, err := json.Marshal(merged)
		if err != nil {
			return err
		}
		if err := os.WriteFile(spansPath, buf, 0o644); err != nil {
			return err
		}
	}
	if out != "" {
		if err := appendRun(out, rec); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// runChild runs one workload child, relays its output and parses the
// result object from its last line.
func runChild(exe string, args []string) (*result, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, runErr
}

func appendRun(path string, rec runRecord) error {
	var f resultsFile
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, rec)
	buf, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// nproc is the parallelism the benchmark drives: the default GOMAXPROCS.
func nproc() int { return runtime.GOMAXPROCS(0) }
