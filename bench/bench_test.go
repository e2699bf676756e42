package main

import (
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json from single-threaded references at the default seed")

// readBenchmark loads the repository's BENCHMARK.json.
func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkFile
	if err := json.Unmarshal(buf, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestWorkloadsSmoke runs every workload at tiny size, untraced and traced,
// and checks that the emitted metrics are exactly the ones BENCHMARK.json
// names and that every output passed its check.
func TestWorkloadsSmoke(t *testing.T) {
	def := readBenchmark(t)
	names := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range def.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		want[true][m.Name] = m.Unit
	}
	if len(want[false]) > 16 || len(want[true]) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(want[false]), len(want[true]))
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{seed: 2, seconds: 60 * time.Millisecond, trace: trace, tiny: true}
			o, err := wl.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			res, _, err := report(cfg, wl.name, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, m := range res.Metrics {
				if !names.MatchString(name) {
					t.Errorf("metric name %q", name)
				}
				if unit, ok := want[trace][name]; !ok || unit != m.Unit {
					t.Errorf("%s: metric %s %s not in BENCHMARK.json", wl.name, name, m.Unit)
				}
			}
		}
	}
}

// TestGolden checks that testdata/golden.json pins every workload; with
// -update it first regenerates the file (about a minute at full size).
func TestGolden(t *testing.T) {
	if *update {
		g := map[string]map[string]string{}
		for _, wl := range workloads {
			want, err := wl.references(config{seed: defaultSeed})
			if err != nil {
				t.Fatalf("%s: %v", wl.name, err)
			}
			g[wl.name] = want
		}
		buf, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		goldenJSON = buf
	}
	for _, wl := range workloads {
		want, err := expectations(config{seed: defaultSeed}, wl.name, nil)
		if err != nil || len(want) == 0 {
			t.Errorf("%s: no golden entries: %v", wl.name, err)
		}
	}
}
