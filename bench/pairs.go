package main

import (
	"context"
	"fmt"
	"time"

	"instcmp"
	"instcmp/internal/datasets"
	"instcmp/internal/experiments"
	"instcmp/internal/generator"
)

// pairShape is one pair of instances compared one-shot, with its options.
type pairShape struct {
	name        string
	left, right *instcmp.Instance
	opt         instcmp.Options
}

// scenario generates a Sec. 7.1 scenario: the noise, drawn from seed, over a
// fixed base table. The base stays put across seeds, as the paper's datasets
// do, so that seeds vary the scenario without moving its size or value
// distribution.
func scenario(ds datasets.Name, n int, noise generator.Noise, seed int64) (*generator.Scenario, error) {
	base, err := datasets.Generate(ds, n, 1)
	if err != nil {
		return nil, err
	}
	noise.Seed = seed
	return generator.Make(base, noise), nil
}

// rows scales a paper-scale row count down for the smoke test.
func rows(cfg config, n int) int {
	if cfg.tiny {
		return max(n/100, 8)
	}
	return n
}

// largeShapes builds pairs-large's five shapes. The sizes put each shape's
// one-shot time on a 2-CPU machine in its own band between 50 and 300 ms,
// so the latency percentiles land inside one shape, not between two.
func largeShapes(cfg config) ([]pairShape, error) {
	sig := func(m instcmp.Mode) instcmp.Options {
		return instcmp.Options{Mode: m, Algorithm: instcmp.AlgoSignature}
	}
	var out []pairShape
	add := func(name string, ds datasets.Name, n int, noise generator.Noise, opt instcmp.Options, k int64) (*generator.Scenario, error) {
		sc, err := scenario(ds, rows(cfg, n), noise, cfg.seed*100+k)
		if err != nil {
			return nil, err
		}
		out = append(out, pairShape{name, sc.Source, sc.Target, opt})
		return sc, nil
	}
	if _, err := add("doct-1to1", datasets.Doct, 10000, experiments.Table2Noise, sig(instcmp.OneToOne), 1); err != nil {
		return nil, err
	}
	if _, err := add("bike-ntom", datasets.Bike, 2500, experiments.Table3Noise, sig(instcmp.ManyToMany), 2); err != nil {
		return nil, err
	}
	if _, err := add("git-1to1", datasets.Git, 2800, experiments.Table2Noise, sig(instcmp.OneToOne), 3); err != nil {
		return nil, err
	}
	drift := sig(instcmp.OneToOne)
	drift.DiscoverMapping = true
	sc, err := add("doct-drift", datasets.Doct, 4000, experiments.Table2Noise, drift, 4)
	if err != nil {
		return nil, err
	}
	out[len(out)-1].right, _ = generator.DriftTarget(sc.Target, generator.Drift{RenamePct: 0.4, Reorder: true, Seed: cfg.seed})
	// Partial matching with a string similarity scores every conflicting
	// constant pair, which is quadratic in the candidate sets: ~100 rows
	// already take as long as the 2k-row Git shape without it.
	partial := sig(instcmp.ManyToMany)
	partial.Partial = true
	partial.ConstSimilarity = instcmp.Levenshtein
	if _, err := add("bike-partial", datasets.Bike, 100, experiments.Table2Noise, partial, 5); err != nil {
		return nil, err
	}
	return out, nil
}

// exactNoise is Table 3's noise without reused nulls: the n-to-m shape on
// which the signature warm start lets the exact search certify the optimum
// at the root.
var exactNoise = generator.Noise{CellPct: 0.05, RandomPct: 0.1, RedundantPct: 0.1}

// smallShapes builds pairs-small's three shapes as a ten-operation
// rotation in which the Doct 100 shape has 60% of the operations and the
// other two 20% each: sorted by latency (tiny < Doct 100 < Doct 500), the
// median then falls in the middle of the Doct 100 shape and the 90th
// percentile in the middle of the Doct 500 shape, not between two shapes.
// The tiny shape alternates between an Iris and an Nba pair.
func smallShapes(cfg config) ([]pairShape, error) {
	exactOpt := func(m instcmp.Mode) instcmp.Options {
		return instcmp.Options{Mode: m, Algorithm: instcmp.AlgoExact}
	}
	d500, err := certifiedScenario("doct500-1to1", datasets.Doct, rows(cfg, 500), experiments.Table2Noise, exactOpt(instcmp.OneToOne), cfg.seed*100+1, 5000)
	if err != nil {
		return nil, err
	}
	d100, err := certifiedScenario("doct100-ntom", datasets.Doct, rows(cfg, 100), exactNoise, exactOpt(instcmp.ManyToMany), cfg.seed*100+2, 16)
	if err != nil {
		return nil, err
	}
	// 14 rows per side stay under AlgoAuto's 32-tuple exact cutoff.
	iris, err := scenario(datasets.Iris, 14, experiments.Table2Noise, cfg.seed*100+3)
	if err != nil {
		return nil, err
	}
	nba, err := scenario(datasets.Nba, 14, experiments.Table2Noise, cfg.seed*100+4)
	if err != nil {
		return nil, err
	}
	return []pairShape{
		{"iris-auto", iris.Source, iris.Target, instcmp.Options{}}, d100, d100, d100, d500,
		{"nba-auto", nba.Source, nba.Target, instcmp.Options{}}, d100, d100, d100, d500,
	}, nil
}

// certifiedScenario returns the first scenario, trying seeds from seed on,
// whose exact search finishes within maxNodes nodes. Exact search time
// varies by orders of magnitude between scenarios of one size (Thm. 5.11),
// so without this choice one seed's latency would say nothing about
// another's.
func certifiedScenario(name string, ds datasets.Name, n int, noise generator.Noise, opt instcmp.Options, seed, maxNodes int64) (pairShape, error) {
	probe := opt
	probe.ExactWorkers = 1
	probe.ExactMaxNodes = maxNodes
	for try := int64(0); try < 100; try++ {
		sc, err := scenario(ds, n, noise, seed+try*7919)
		if err != nil {
			return pairShape{}, err
		}
		res, err := instcmp.Compare(sc.Source, sc.Target, &probe)
		if err != nil {
			return pairShape{}, err
		}
		if res.Exhaustive {
			return pairShape{name, sc.Source, sc.Target, opt}, nil
		}
	}
	return pairShape{}, fmt.Errorf("no %s %d scenario certified within %d nodes", ds, n, maxNodes)
}

// pairReferences scores every shape once with single-threaded engines.
func pairReferences(shapes []pairShape) (map[string]string, error) {
	want := map[string]string{}
	for _, s := range shapes {
		opt := s.opt
		opt.SigWorkers, opt.ExactWorkers = 1, 1
		res, err := instcmp.Compare(s.left, s.right, &opt)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", s.name, err)
		}
		want[s.name] = bits(res.Score)
	}
	return want, nil
}

func pairsLargeReferences(cfg config) (map[string]string, error) {
	shapes, err := largeShapes(cfg)
	if err != nil {
		return nil, err
	}
	return pairReferences(shapes)
}

func pairsSmallReferences(cfg config) (map[string]string, error) {
	shapes, err := smallShapes(cfg)
	if err != nil {
		return nil, err
	}
	return pairReferences(shapes)
}

func runPairsLarge(cfg config) (*outcome, error) {
	shapes, err := largeShapes(cfg)
	if err != nil {
		return nil, err
	}
	return runPairs(cfg, "pairs-large", shapes)
}

func runPairsSmall(cfg config) (*outcome, error) {
	shapes, err := smallShapes(cfg)
	if err != nil {
		return nil, err
	}
	return runPairs(cfg, "pairs-small", shapes)
}

// runPairs times one-shot CompareContext calls over the shapes in rotation
// with one caller. Traced operations are decomposed into Prepare ×2 →
// ComparePreparedContext, which scores bit-identically.
func runPairs(cfg config, name string, shapes []pairShape) (*outcome, error) {
	want, err := expectations(cfg, name, func() (map[string]string, error) { return pairReferences(shapes) })
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	// The one-shot path has no set-up of its own; setup_s is what a
	// resident caller would pay instead: preparing every instance once.
	o.setupS, o.setupReps, err = medianSetup(cfg, func() (time.Duration, error) {
		start := time.Now()
		for _, s := range shapes {
			if _, err := instcmp.Prepare(s.left); err != nil {
				return 0, err
			}
			if _, err := instcmp.Prepare(s.right); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	op := func(i, opID int, rec *Recorder) bool {
		s := &shapes[i]
		if rec == nil {
			res, err := instcmp.CompareContext(ctx, s.left, s.right, &s.opt)
			return err == nil && bits(res.Score) == want[s.name]
		}
		return tracedPairOp(ctx, s, opID, rec, want[s.name])
	}
	run := func(d time.Duration, rec *Recorder) (*phase, int) { return closedLoop(d, len(shapes), rec, op) }
	if !cfg.trace {
		p, failed := run(cfg.seconds, nil)
		o.lat, o.thr, o.failed, o.attempted = p, p, failed, p.ops+p.warm
		return o, nil
	}
	plain, traced, failed, overhead := tracedRun(cfg.seconds, NewRecorder(), run)
	o.failed, o.attempted = failed, plain.ops+plain.warm+traced.ops+traced.warm
	o.spans = traced.spans
	o.layers = map[string]float64{
		"prepare.ms_per_call":       meanMS(o.spans, "prepare"),
		"schemamap.ms_per_call":     meanMS(o.spans, "schemamap"),
		"prepare.alloc_kb_per_call": mean(attrValues(o.spans, "prepare", "alloc_kb")),
		"compare.alloc_kb_per_call": mean(attrValues(o.spans, "compare", "alloc_kb")),
	}
	compareLayers(attrsOf(o.spans, "compare"), o.layers)
	runtimeLayers(plain, overhead, o.layers)
	return o, nil
}

// tracedPairOp runs one pair as Prepare ×2 → ComparePreparedContext under
// spans. A shape with mapping discovery also calls MapSchemas as a probe:
// the compare discovers the mapping again inside.
func tracedPairOp(ctx context.Context, s *pairShape, opID int, rec *Recorder, want string) bool {
	root := rec.Start("op", 0, opID)
	defer rec.End(root, nil)
	prepare := func(in *instcmp.Instance) *instcmp.Prepared {
		id := rec.Start("prepare", root, opID)
		u := readUsage()
		p, err := instcmp.Prepare(in)
		rec.End(id, map[string]float64{"alloc_kb": allocSince(u) / 1e3})
		if err != nil {
			return nil
		}
		return p
	}
	lp, rp := prepare(s.left), prepare(s.right)
	if lp == nil || rp == nil {
		return false
	}
	if s.opt.DiscoverMapping {
		id := rec.Start("schemamap", root, opID)
		_, err := instcmp.MapSchemas(s.left, s.right)
		rec.EndProbe(id, nil)
		if err != nil {
			return false
		}
	}
	id := rec.Start("compare", root, opID)
	u := readUsage()
	res, err := instcmp.ComparePreparedContext(ctx, lp, rp, &s.opt)
	alloc := allocSince(u) / 1e3
	if err != nil {
		rec.End(id, nil)
		return false
	}
	attrs := statsAttrs(res.Stats, res.Algorithm == instcmp.AlgoExact, res.Exhaustive)
	attrs["alloc_kb"] = alloc
	rec.End(id, attrs)
	return bits(res.Score) == want
}
