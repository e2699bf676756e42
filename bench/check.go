package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"instcmp"
)

// goldenJSON pins, for the default seed at full size, the expected output of
// every checked operation: score bits per pair shape, top-10 lists per lake
// query, and library scores of the first planned serve compares. Regenerate
// it with `go test -run TestGolden -update` after a deliberate score change.
//
//go:embed testdata/golden.json
var goldenJSON []byte

const defaultSeed = 1

// expectations returns the expected outputs for a run: the golden values at
// the default seed and full size, and otherwise references computed with
// single-threaded engines outside the timed phase.
func expectations(cfg config, wl string, refs func() (map[string]string, error)) (map[string]string, error) {
	if cfg.seed == defaultSeed && !cfg.tiny {
		var g map[string]map[string]string
		if err := json.Unmarshal(goldenJSON, &g); err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		if want, ok := g[wl]; ok && len(want) > 0 {
			return want, nil
		}
		return nil, fmt.Errorf("golden: no entries for %s", wl)
	}
	return refs()
}

// bits renders a score exactly, so checks compare scores bit for bit.
func bits(score float64) string { return fmt.Sprintf("%016x", math.Float64bits(score)) }

// statsAttrs flattens a comparison record into span attributes.
func statsAttrs(st instcmp.ComparisonStats, exact, exhaustive bool) map[string]float64 {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return map[string]float64{
		"normalize_ms":    ms(st.NormalizeTime),
		"search_ms":       ms(st.SearchTime),
		"explain_ms":      ms(st.ExplainTime),
		"sig_phase_ms":    ms(st.SigPhase),
		"compat_phase_ms": ms(st.CompatPhase),
		"sig_ran":         b2f(st.SigWorkers > 0),
		"sig_matches":     float64(st.SigMatches),
		"compat_matches":  float64(st.CompatMatches),
		"parallel_blocks": float64(st.SigParallelBlocks),
		"pair_attempts":   float64(st.PairAttempts),
		"pair_rejects":    float64(st.PairRejects),
		"score_evals":     float64(st.ScoreEvals),
		"exact":           b2f(exact),
		"exhaustive":      b2f(exhaustive),
		"nodes":           float64(st.Nodes),
		"prunes":          float64(st.Prunes),
	}
}

// compareLayers fills the compare.*, signature.* and exact.* metrics from
// the attributes of every comparison a traced run made.
func compareLayers(all []map[string]float64, out map[string]float64) {
	var norm, search, explain, sig, compat, blocks, evals, exactSearch, nodes []float64
	var attempts, rejects, sigM, compatM, prunes, nodeSum, exhaustive float64
	for _, a := range all {
		norm = append(norm, a["normalize_ms"])
		search = append(search, a["search_ms"])
		explain = append(explain, a["explain_ms"])
		if a["sig_ran"] == 1 {
			sig = append(sig, a["sig_phase_ms"])
			compat = append(compat, a["compat_phase_ms"])
			blocks = append(blocks, a["parallel_blocks"])
			sigM += a["sig_matches"]
			compatM += a["compat_matches"]
		}
		evals = append(evals, a["score_evals"])
		attempts += a["pair_attempts"]
		rejects += a["pair_rejects"]
		if a["exact"] == 1 {
			exactSearch = append(exactSearch, a["search_ms"])
			nodes = append(nodes, a["nodes"])
			nodeSum += a["nodes"]
			prunes += a["prunes"]
			exhaustive += a["exhaustive"]
		}
	}
	out["compare.normalize_ms"] = mean(norm)
	out["compare.search_ms"] = mean(search)
	out["compare.explain_ms"] = mean(explain)
	out["signature.sig_phase_ms"] = mean(sig)
	out["signature.compat_phase_ms"] = mean(compat)
	out["signature.parallel_blocks"] = mean(blocks)
	out["signature.score_evals"] = mean(evals)
	out["signature.pair_accept_frac"] = ratio(attempts-rejects, attempts)
	out["signature.sb_frac"] = ratio(sigM, sigM+compatM)
	out["exact.search_ms"] = mean(exactSearch)
	out["exact.nodes"] = mean(nodes)
	out["exact.prunes_per_node"] = ratio(prunes, nodeSum)
	out["exact.exhaustive_frac"] = ratio(exhaustive, float64(len(exactSearch)))
}

// attrsOf collects the attributes of the named spans.
func attrsOf(spans []Span, name string) []map[string]float64 {
	var out []map[string]float64
	for _, s := range spansOf(spans, name) {
		out = append(out, s.Attrs)
	}
	return out
}

// attrValues collects one attribute of the named spans.
func attrValues(spans []Span, name, attr string) []float64 {
	var xs []float64
	for _, s := range spansOf(spans, name) {
		if v, ok := s.Attrs[attr]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// meanMS returns the mean duration of the named spans in milliseconds.
func meanMS(spans []Span, name string) float64 {
	var xs []float64
	for _, s := range spansOf(spans, name) {
		xs = append(xs, ms(s.Duration()))
	}
	return mean(xs)
}

// tracedRun runs a closed-loop phase untraced for half of d and traced into
// rec for the other half, and returns both with the tracing overhead: the
// share of untraced throughput the traced phase lost, not counting probe
// calls.
func tracedRun(d time.Duration, rec *Recorder, run func(d time.Duration, rec *Recorder) (*phase, int)) (plain, traced *phase, failed int, overhead float64) {
	plain, f1 := run(d/2, nil)
	traced, f2 := run(d/2, rec)
	busy := traced.elapsed - probeTime(traced.spans)
	overhead = 1 - (float64(traced.ops)/busy.Seconds())/plain.throughput()
	return plain, traced, f1 + f2, overhead
}

// runtimeLayers fills the runtime.* and trace.* metrics.
func runtimeLayers(plain *phase, overhead float64, out map[string]float64) {
	out["runtime.gc_cpu_frac"] = plain.gcCPUFrac()
	out["runtime.gc_cycles_per_op"] = plain.gcCyclesPerOp()
	out["trace.overhead_frac"] = overhead
}
