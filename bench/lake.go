package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"instcmp"
	"instcmp/internal/datasets"
	"instcmp/internal/generator"
	"instcmp/internal/lake"
	"instcmp/internal/lakeindex"
	"instcmp/internal/versioning"
)

// lakeQueries is how many example queries lake-rank rotates over; each
// query's base seeds a quarter of the lake.
const lakeQueries = 4

// lakeInputs are lake-rank's generated instances, before preparation.
type lakeInputs struct {
	queries []*instcmp.Instance
	names   []string
	cands   []*instcmp.Instance
}

// lakeData generates the lake: per query, a base Iris table and candidates
// cycling through five shapes — shuffled clones, near/mid/far noise
// variants of the base, and unrelated Nba tables.
func lakeData(cfg config) (*lakeInputs, error) {
	perQuery, n := 500, 24
	if cfg.tiny {
		perQuery, n = 30, 12
	}
	in := &lakeInputs{}
	for q := 0; q < lakeQueries; q++ {
		seed := cfg.seed*100 + int64(q)
		base := datasets.IrisData(n, rand.New(rand.NewSource(seed)))
		in.queries = append(in.queries, base)
		for i := 0; i < perQuery; i++ {
			var inst *instcmp.Instance
			var shape string
			s := seed*10000 + int64(i)
			switch i % 5 {
			case 0:
				shape = "clone"
				var err error
				if inst, err = versioning.MakeVariant(base, versioning.Shuffled, 0, s); err != nil {
					return nil, err
				}
			case 1:
				shape = "near"
				inst = generator.Make(base, generator.Noise{CellPct: 0.03, Seed: s}).Target
			case 2:
				shape = "mid"
				inst = generator.Make(base, generator.Noise{CellPct: 0.15, Seed: s}).Target
			case 3:
				shape = "far"
				inst = generator.Make(base, generator.Noise{CellPct: 0.35, RandomPct: 0.3, RedundantPct: 0.2, Seed: s}).Target
			case 4:
				shape = "unrelated"
				inst = datasets.NbaData(n, rand.New(rand.NewSource(s)))
			}
			in.names = append(in.names, fmt.Sprintf("q%d-c%04d-%s", q, i, shape))
			in.cands = append(in.cands, inst)
		}
	}
	return in, nil
}

// preparedLake is the resident state lake-rank's set-up builds.
type preparedLake struct {
	queries []*instcmp.Prepared
	cands   []lake.PreparedCandidate
	index   *lakeindex.Index
	build   time.Duration // BuildIndex alone
}

// prepareLake runs the set-up calls: Prepare for every query and candidate,
// then BuildIndex. With a recorder it records a span per call.
func prepareLake(in *lakeInputs, rec *Recorder) (*preparedLake, time.Duration, error) {
	pl := &preparedLake{}
	start := time.Now()
	prepare := func(inst *instcmp.Instance) (*instcmp.Prepared, error) {
		id := rec.Start("prepare", 0, 0)
		var u usage
		if rec != nil {
			u = readUsage()
		}
		p, err := instcmp.Prepare(inst)
		var attrs map[string]float64
		if rec != nil {
			attrs = map[string]float64{"alloc_kb": allocSince(u) / 1e3}
		}
		rec.End(id, attrs)
		return p, err
	}
	for _, q := range in.queries {
		p, err := prepare(q)
		if err != nil {
			return nil, 0, err
		}
		pl.queries = append(pl.queries, p)
	}
	for i, c := range in.cands {
		p, err := prepare(c)
		if err != nil {
			return nil, 0, err
		}
		pl.cands = append(pl.cands, lake.PreparedCandidate{Name: in.names[i], Prepared: p})
	}
	b := time.Now()
	id := rec.Start("lakeindex.build", 0, 0)
	ix, err := lake.BuildIndex(pl.cands)
	rec.End(id, nil)
	if err != nil {
		return nil, 0, err
	}
	pl.index, pl.build = ix, time.Since(b)
	return pl, time.Since(start), nil
}

// topTen renders a ranking's first ten entries exactly.
func topTen(res []lake.Result) string {
	var b strings.Builder
	for i := 0; i < min(10, len(res)); i++ {
		fmt.Fprintf(&b, "%s:%s,", res[i].Name, bits(res[i].Score))
	}
	return b.String()
}

// recall returns the share of want's top-ten names that got appears with.
func recall(got, want string) float64 {
	in := map[string]bool{}
	for _, e := range strings.Split(want, ",") {
		if name, _, ok := strings.Cut(e, ":"); ok {
			in[name] = true
		}
	}
	hit := 0
	for _, e := range strings.Split(got, ",") {
		if name, _, ok := strings.Cut(e, ":"); ok && in[name] {
			hit++
		}
	}
	return ratio(float64(hit), float64(len(in)))
}

// lakeOracle ranks each query by full scan.
func lakeOracle(pl *preparedLake) (map[string]string, error) {
	want := map[string]string{}
	for q, ex := range pl.queries {
		res, err := lake.RankPreparedContext(context.Background(), ex, pl.cands, lake.Options{Workers: nproc()})
		if err != nil {
			return nil, err
		}
		want[fmt.Sprintf("q%d", q)] = topTen(res)
	}
	return want, nil
}

func lakeRankReferences(cfg config) (map[string]string, error) {
	in, err := lakeData(cfg)
	if err != nil {
		return nil, err
	}
	pl, _, err := prepareLake(in, nil)
	if err != nil {
		return nil, err
	}
	return lakeOracle(pl)
}

// runLakeRank times lake.RankIndexedContext over a resident lake with a
// static index, one caller, rotating over the queries.
func runLakeRank(cfg config) (*outcome, error) {
	in, err := lakeData(cfg)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	var pl *preparedLake
	var builds []time.Duration
	o.setupS, o.setupReps, err = medianSetup(cfg, func() (time.Duration, error) {
		var d time.Duration
		pl, d, err = prepareLake(in, nil)
		if err == nil {
			builds = append(builds, pl.build)
		}
		return d, err
	})
	if err != nil {
		return nil, err
	}
	// A traced run takes per-call set-up costs from one more set-up, under
	// the recorder the timed phase uses too.
	var rec *Recorder
	if cfg.trace {
		rec = NewRecorder()
		if pl, _, err = prepareLake(in, rec); err != nil {
			return nil, err
		}
	}
	// The generated instances are not needed past set-up (the prepared lake
	// holds its own copies); dropping them keeps the garbage collector from
	// marking the benchmark's inputs during the timed phase.
	in = nil
	want, err := expectations(cfg, "lake-rank", func() (map[string]string, error) { return lakeOracle(pl) })
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	opt := lake.Options{Workers: nproc()}
	var recalls []float64
	var candAttrs []map[string]float64
	op := func(q, opID int, rec *Recorder) bool {
		ex := pl.queries[q]
		key := fmt.Sprintf("q%d", q)
		if rec == nil {
			res, _, err := lake.RankIndexedContext(ctx, ex, pl.cands, pl.index, opt)
			return err == nil && topTen(res) == want[key]
		}
		root := rec.Start("op", 0, opID)
		defer rec.End(root, nil)
		// Probes: the ranking sketches the query and probes the index
		// itself; these calls time those two steps alone.
		id := rec.Start("lakeindex.sketch", root, opID)
		sk := lakeindex.NewSketch(ex.SketchFeatures())
		rec.EndProbe(id, nil)
		id = rec.Start("lakeindex.shortlist", root, opID)
		pl.index.Shortlist(sk, max(4*lake.DefaultTopK, lake.DefaultMinShortlist))
		rec.EndProbe(id, nil)

		id = rec.Start("lake.rank", root, opID)
		u := readUsage()
		res, st, err := lake.RankIndexedContext(ctx, ex, pl.cands, pl.index, opt)
		alloc := allocSince(u) / 1e3
		if err != nil {
			rec.End(id, nil)
			return false
		}
		var perCand []float64
		for _, r := range res {
			if r.Stats != nil {
				candAttrs = append(candAttrs, statsAttrs(*r.Stats, false, false))
				perCand = append(perCand, ms(r.Stats.NormalizeTime+r.Stats.SearchTime+r.Stats.ExplainTime))
			}
		}
		got := topTen(res)
		rec.End(id, map[string]float64{
			"shortlist_size":           float64(st.ShortlistSize),
			"probed":                   float64(st.Probed),
			"alloc_kb_per_candidate":   ratio(alloc, float64(st.ShortlistSize)),
			"compare_ms_per_candidate": mean(perCand),
		})
		recalls = append(recalls, recall(got, want[key]))
		return got == want[key]
	}
	run := func(d time.Duration, rec *Recorder) (*phase, int) { return closedLoop(d, len(pl.queries), rec, op) }
	if !cfg.trace {
		p, failed := run(cfg.seconds, nil)
		o.lat, o.thr, o.failed, o.attempted = p, p, failed, p.ops+p.warm
		return o, nil
	}
	plain, traced, failed, overhead := tracedRun(cfg.seconds, rec, run)
	o.failed, o.attempted = failed, plain.ops+plain.warm+traced.ops+traced.warm
	_, addUS, _, err := indexProbe(pl.cands)
	if err != nil {
		return nil, err
	}
	o.spans = traced.spans
	o.layers = map[string]float64{
		"prepare.ms_per_call":           meanMS(o.spans, "prepare"),
		"prepare.alloc_kb_per_call":     mean(attrValues(o.spans, "prepare", "alloc_kb")),
		"compare.alloc_kb_per_call":     mean(attrValues(o.spans, "lake.rank", "alloc_kb_per_candidate")),
		"lakeindex.build_s":             percentile(builds, 0.5).Seconds(),
		"lakeindex.sketch_us":           1e3 * meanMS(o.spans, "lakeindex.sketch"),
		"lakeindex.shortlist_us":        1e3 * meanMS(o.spans, "lakeindex.shortlist"),
		"lakeindex.probed":              mean(attrValues(o.spans, "lake.rank", "probed")),
		"lakeindex.dynamic_add_us":      addUS,
		"lake.shortlist_size":           mean(attrValues(o.spans, "lake.rank", "shortlist_size")),
		"lake.compare_ms_per_candidate": mean(attrValues(o.spans, "lake.rank", "compare_ms_per_candidate")),
		"lake.top10_recall":             mean(recalls),
	}
	compareLayers(candAttrs, o.layers)
	runtimeLayers(plain, overhead, o.layers)
	return o, nil
}
