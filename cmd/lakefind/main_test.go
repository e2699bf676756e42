package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func setupLake(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	example := filepath.Join(dir, "example.csv")
	write(t, example, "Name,Year\nVLDB,1975\nSIGMOD,1976\n")
	lakeDir := filepath.Join(dir, "lake")
	write(t, filepath.Join(lakeDir, "twin.csv"), "Name,Year\nSIGMOD,1976\nVLDB,1975\n")
	write(t, filepath.Join(lakeDir, "partial.csv"), "Name,Year\nVLDB,_:N1\nICDE,1984\n")
	write(t, filepath.Join(lakeDir, "unrelated.csv"), "Name,Year\nfoo,1\nbar,2\n")
	write(t, filepath.Join(lakeDir, "nested", "conf.csv"), "Name,Year\nVLDB,1975\n")
	write(t, filepath.Join(lakeDir, "notes.txt"), "not a dataset")
	return example, lakeDir
}

func TestRunRanksLake(t *testing.T) {
	example, lakeDir := setupLake(t)
	var out strings.Builder
	if err := run([]string{example, lakeDir}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 5 { // header + 4 datasets (txt skipped)
		t.Fatalf("lines = %d:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[1], "twin.csv") {
		t.Errorf("twin should rank first:\n%s", got)
	}
	if !strings.Contains(lines[1], "1.0000") {
		t.Errorf("twin score should be 1:\n%s", got)
	}
	if !strings.Contains(got, "nested") {
		t.Errorf("nested dataset missing:\n%s", got)
	}
}

func TestRunTopAndPrefilter(t *testing.T) {
	example, lakeDir := setupLake(t)
	var out strings.Builder
	if err := run([]string{"-top", "1", "-min-overlap", "0.3", example, lakeDir}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("-top 1 printed %d lines:\n%s", len(lines), out.String())
	}
}

func TestRunStatsFlag(t *testing.T) {
	example, lakeDir := setupLake(t)
	var out strings.Builder
	if err := run([]string{"-stats", example, lakeDir}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "stats twin.csv") {
		t.Errorf("-stats printed no per-candidate line:\n%s", got)
	}
	if !strings.Contains(got, "attempts=") || !strings.Contains(got, "search=") {
		t.Errorf("stats line missing counters:\n%s", got)
	}
}

func TestRunLambdaFlag(t *testing.T) {
	example, lakeDir := setupLake(t)
	// partial.csv holds a null where the example has a constant; λ = 0
	// removes that cell's credit, so partial's score must drop.
	var def, zero strings.Builder
	if err := run([]string{example, lakeDir}, &def); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-lambda", "0", example, lakeDir}, &zero); err != nil {
		t.Fatal(err)
	}
	score := func(s, name string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, name) {
				return strings.Fields(line)[1]
			}
		}
		t.Fatalf("%s missing:\n%s", name, s)
		return ""
	}
	d, z := score(def.String(), "partial.csv"), score(zero.String(), "partial.csv")
	if d <= z {
		t.Errorf("λ=0 should lower partial.csv's score: default %s, zero %s", d, z)
	}
	if score(def.String(), "twin.csv") != score(zero.String(), "twin.csv") {
		t.Error("λ=0 changed a null-free candidate's score")
	}
}

func TestRunCandidateTimeout(t *testing.T) {
	example, lakeDir := setupLake(t)
	var out strings.Builder
	if err := run([]string{"-candidate-timeout", "1ns", example, lakeDir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(timeout)") {
		t.Errorf("no candidate marked (timeout):\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	example, lakeDir := setupLake(t)
	if err := run([]string{example}, &strings.Builder{}); err == nil {
		t.Error("missing lake dir not reported")
	}
	if err := run([]string{example, filepath.Join(lakeDir, "missing")}, &strings.Builder{}); err == nil {
		t.Error("unreadable lake not reported")
	}
	empty := t.TempDir()
	if err := run([]string{example, empty}, &strings.Builder{}); err == nil {
		t.Error("empty lake not reported")
	}
}

// setupBigLake builds a lake large enough (80 datasets > the 64-candidate
// shortlist floor) that -index genuinely prunes, with one twin of the
// example hidden among disjoint noise datasets.
func setupBigLake(t *testing.T) (string, string, string) {
	t.Helper()
	dir := t.TempDir()
	example := filepath.Join(dir, "example.csv")
	write(t, example, "Name,Year\nVLDB,1975\nSIGMOD,1976\nICDE,1984\n")
	lakeDir := filepath.Join(dir, "lake")
	write(t, filepath.Join(lakeDir, "twin.csv"), "Name,Year\nICDE,1984\nVLDB,1975\nSIGMOD,1976\n")
	for i := 0; i < 79; i++ {
		write(t, filepath.Join(lakeDir, fmt.Sprintf("noise-%02d.csv", i)),
			fmt.Sprintf("Name,Year\nn%da,%d\nn%db,%d\n", i, 3000+i, i, 4000+i))
	}
	return example, lakeDir, filepath.Join(dir, "lake.idx")
}

func TestRunBuildIndexAndQuery(t *testing.T) {
	example, lakeDir, idx := setupBigLake(t)

	var bout strings.Builder
	if err := run([]string{"-build-index", "-index", idx, lakeDir}, &bout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bout.String(), "wrote 80 sketches") {
		t.Fatalf("build output: %s", bout.String())
	}
	if _, err := os.Stat(idx); err != nil {
		t.Fatalf("index file missing: %v", err)
	}

	// Cold-start query: a fresh process would do exactly this — read the
	// index, shortlist, and load only the shortlist.
	var qout strings.Builder
	if err := run([]string{"-min-overlap", "0", "-index", idx, example, lakeDir}, &qout); err != nil {
		t.Fatal(err)
	}
	got := qout.String()
	if !strings.Contains(got, "index: compared 64 of 80 datasets") {
		t.Errorf("indexed run did not shortlist:\n%s", got)
	}
	lines := strings.Split(strings.TrimSpace(got), "\n")
	// index line + header + 80 datasets.
	if len(lines) != 82 {
		t.Fatalf("lines = %d:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[2], "twin.csv") || !strings.Contains(lines[2], "1.0000") {
		t.Errorf("twin should rank first at score 1:\n%s", got)
	}
	if !strings.Contains(got, "(pruned)") {
		t.Errorf("no candidate reported index-pruned:\n%s", got)
	}

	// The full scan agrees on the winner.
	var fout strings.Builder
	if err := run([]string{"-min-overlap", "0", example, lakeDir}, &fout); err != nil {
		t.Fatal(err)
	}
	flines := strings.Split(strings.TrimSpace(fout.String()), "\n")
	if !strings.HasPrefix(flines[1], "twin.csv") {
		t.Errorf("full scan disagrees:\n%s", fout.String())
	}
}

func TestRunIndexStaleAndMissingDatasets(t *testing.T) {
	example, lakeDir, idx := setupBigLake(t)
	if err := run([]string{"-build-index", "-index", idx, lakeDir}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	// A dataset registered AFTER the index was built — and it is the best
	// match. The stale index must not hide it.
	write(t, filepath.Join(lakeDir, "newcomer.csv"), "Name,Year\nVLDB,1975\nSIGMOD,1976\nICDE,1984\n")
	// And one indexed dataset disappears from disk.
	if err := os.Remove(filepath.Join(lakeDir, "noise-42.csv")); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-min-overlap", "0", "-index", idx, example, lakeDir}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "unindexed=1") {
		t.Errorf("newcomer not reported unindexed:\n%s", got)
	}
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if !strings.HasPrefix(lines[2], "newcomer.csv") && !strings.HasPrefix(lines[2], "twin.csv") {
		t.Errorf("best match missing from the top despite stale index:\n%s", got)
	}
	if strings.Contains(got, "noise-42.csv") {
		t.Errorf("deleted dataset resurfaced:\n%s", got)
	}
}

// TestRunIndexRankingMatchesFullScan pins the whole printed ranking, not
// just its top: index-pruned datasets must merge into the shared order
// (scored first, then degraded by overlap desc, name asc) rather than trail
// behind it. An unindexed dataset sharing no constants sorts last by name
// here, exactly where the full scan prints it.
func TestRunIndexRankingMatchesFullScan(t *testing.T) {
	example, lakeDir, idx := setupBigLake(t)
	if err := run([]string{"-build-index", "-index", idx, lakeDir}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	write(t, filepath.Join(lakeDir, "zz-new.csv"), "Name,Year\nzz,1\n")

	var indexed, scan strings.Builder
	if err := run([]string{"-index", idx, example, lakeDir}, &indexed); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{example, lakeDir}, &scan); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(indexed.String()), "\n")
	if !strings.HasPrefix(got[0], "index: compared 65 of 81 datasets") || !strings.Contains(got[0], "unindexed=1") {
		t.Fatalf("indexed run did not shortlist 64 plus the newcomer:\n%s", indexed.String())
	}
	if want := strings.TrimSpace(scan.String()); strings.Join(got[1:], "\n") != want {
		t.Errorf("indexed ranking differs from the full scan\nindexed:\n%s\nfull scan:\n%s", indexed.String(), scan.String())
	}
}

func TestRunIndexUnusableFallsBack(t *testing.T) {
	example, lakeDir, idx := setupBigLake(t)
	if err := run([]string{"-build-index", "-index", idx, lakeDir}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte) string {
		t.Helper()
		data, err := os.ReadFile(idx)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string]string{
		"not an index": corrupt("garbage.idx", func([]byte) []byte { return []byte("Name,Year\nno,1\n") }),
		"version": corrupt("version.idx", func(b []byte) []byte {
			b[4]++ // format version field
			return b
		}),
		"corrupt": corrupt("bitflip.idx", func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}),
		"missing": filepath.Join(t.TempDir(), "nope.idx"),
	}
	for name, path := range cases {
		var out strings.Builder
		if err := run([]string{"-index", path, example, lakeDir}, &out); err != nil {
			t.Errorf("%s: indexed run failed instead of falling back: %v", name, err)
			continue
		}
		got := out.String()
		if !strings.Contains(got, "falling back to full scan") {
			t.Errorf("%s: no fallback warning:\n%s", name, got)
		}
		if !strings.Contains(got, "twin.csv") {
			t.Errorf("%s: fallback scan lost the ranking:\n%s", name, got)
		}
	}
}

func TestRunIndexReadFlagsMismatch(t *testing.T) {
	// An index built under -anon-nulls describes different sketches than a
	// plain query would compute; the query must warn and fall back to a
	// full scan rather than prune against incompatible sketches.
	example, lakeDir, idx := setupBigLake(t)
	if err := run([]string{"-build-index", "-index", idx, "-anon-nulls", lakeDir}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-min-overlap", "0", "-index", idx, example, lakeDir}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "falling back to full scan") {
		t.Errorf("flags mismatch not warned about:\n%s", got)
	}
	if !strings.Contains(got, `"anon-nulls"`) || !strings.Contains(got, `"none"`) {
		t.Errorf("warning does not name both option sets:\n%s", got)
	}
	if strings.Contains(got, "(pruned)") {
		t.Errorf("mismatched index still pruned candidates:\n%s", got)
	}
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if !strings.Contains(lines[0], "index ") {
		t.Errorf("warning missing:\n%s", got)
	}
	// lines[0] is the warning, lines[1] the table header.
	if !strings.HasPrefix(lines[2], "twin.csv") {
		t.Errorf("fallback scan lost the ranking:\n%s", got)
	}

	// Matching options: the index is honored.
	var ok strings.Builder
	if err := run([]string{"-min-overlap", "0", "-index", idx, "-anon-nulls", example, lakeDir}, &ok); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ok.String(), "index: compared") {
		t.Errorf("matching options did not use the index:\n%s", ok.String())
	}
}

func TestRunBuildIndexErrors(t *testing.T) {
	_, lakeDir, idx := setupBigLake(t)
	if err := run([]string{"-build-index", lakeDir}, &strings.Builder{}); err == nil {
		t.Error("-build-index without -index accepted")
	}
	if err := run([]string{"-build-index", "-index", idx}, &strings.Builder{}); err == nil {
		t.Error("-build-index without a lake dir accepted")
	}
	if err := run([]string{"-build-index", "-index", idx, t.TempDir()}, &strings.Builder{}); err == nil {
		t.Error("-build-index over an empty dir accepted")
	}
}
