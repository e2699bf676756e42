package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"instcmp"
	"instcmp/internal/lake"
	"instcmp/internal/lakeindex"
	"instcmp/internal/serve"
)

const (
	serveInstances = 200
	serveRows      = 40
	serveRankCands = 32
	// serveRate is the open-loop offered rate in operations per second:
	// about a quarter of the closed-loop throughput of serve-mixed on a
	// 2-CPU VM (a median of 2100 ops/s over ten runs). At half, open-loop
	// latency swung by more than a third between sets of runs whenever the
	// VM slowed, as queueing amplifies every slowdown near saturation.
	serveRate = 500.0
	// serveP99LimitMS is the open-loop latency limit the run reports
	// against.
	serveP99LimitMS = 50.0
	// serveChecks is how many served compare scores are re-checked against
	// the library after the run, and serveGolden how many of the first are
	// pinned in testdata/golden.json.
	serveChecks = 100
	serveGolden = 20
)

// serveInstance generates one single-relation instance: constants drawn from
// a pool shared by every instance, so rankings find real overlap, and nulls
// from a per-instance namespace, so prepared instances compare without
// renaming nulls apart.
func serveInstance(name string, n int, rng *rand.Rand) *instcmp.Instance {
	in := instcmp.NewInstance()
	in.AddRelation("data", "a", "b", "c", "d")
	nulls := 0
	for r := 0; r < n; r++ {
		row := make([]instcmp.Value, 4)
		for c := range row {
			switch {
			case rng.Float64() < 0.04 && nulls > 0:
				row[c] = instcmp.Null(fmt.Sprintf("%s_n%d", name, rng.Intn(nulls)))
			case rng.Float64() < 0.12:
				row[c] = instcmp.Null(fmt.Sprintf("%s_n%d", name, nulls))
				nulls++
			default:
				row[c] = instcmp.Const(fmt.Sprintf("v%d", rng.Intn(3*n)))
			}
		}
		in.Append("data", row...)
	}
	return in
}

// serveOp is one planned operation.
type serveOp struct {
	kind     string // "compare", "rank" or "write"
	compare  *serve.CompareRequest
	rank     *serve.RankRequest
	del      string
	register *serve.RegisterRequest
	// goldenIdx is the index of a compare among the plan's first
	// serveGolden compares, or -1.
	goldenIdx int
}

// planner generates the deterministic operation stream: 80% compares, 10%
// ranks, 10% writes. A write deletes the oldest registered instance and
// registers a new one, so the registry size stays fixed. Reads name only
// instances that are neither among the 50 oldest (soon deleted) nor among
// the 10 newest (possibly still being registered by an earlier write).
type planner struct {
	mu       sync.Mutex
	seed     int64
	rng      *rand.Rand
	n        int
	live     []string // registration order
	initial  map[string]*instcmp.Instance
	writes   int
	compares int
}

func newPlanner(seed int64, n int, initial []string, insts map[string]*instcmp.Instance) *planner {
	return &planner{seed: seed, rng: rand.New(rand.NewSource(seed)), n: n, live: append([]string(nil), initial...), initial: insts}
}

// written generates the instance the k-th write registers. It is drawn
// from its own seed, so the re-check can regenerate it instead of the
// planner keeping every written instance for the whole run.
func (p *planner) written(k int) (string, *instcmp.Instance) {
	name := fmt.Sprintf("w%06d", k)
	return name, serveInstance(name, p.n, rand.New(rand.NewSource(p.seed*1_000_003+int64(k))))
}

// window returns the names reads may use.
func (p *planner) window() []string {
	lo, hi := len(p.live)/4, len(p.live)-len(p.live)/20
	return p.live[lo:hi]
}

func (p *planner) next() serveOp {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.window()
	switch x := p.rng.Float64(); {
	case x < 0.8:
		perm := p.rng.Perm(len(w))
		op := serveOp{kind: "compare", compare: &serve.CompareRequest{Left: w[perm[0]], Right: w[perm[1]]}, goldenIdx: -1}
		if p.compares < serveGolden {
			op.goldenIdx = p.compares
		}
		p.compares++
		return op
	case x < 0.9:
		perm := p.rng.Perm(len(w))
		req := &serve.RankRequest{Example: w[perm[0]], TopK: 2, MinShortlist: 4}
		for _, i := range perm[1 : serveRankCands+1] {
			req.Candidates = append(req.Candidates, w[i])
		}
		return serveOp{kind: "rank", rank: req, goldenIdx: -1}
	default:
		name, in := p.written(p.writes)
		p.writes++
		op := serveOp{kind: "write", del: p.live[0], goldenIdx: -1,
			register: &serve.RegisterRequest{Name: name, Instance: *serve.EncodeInstance(in)}}
		p.live = append(p.live[1:], name)
		return op
	}
}

// instance returns the generated instance registered under name.
func (p *planner) instance(name string) (*instcmp.Instance, error) {
	if in, ok := p.initial[name]; ok {
		return in, nil
	}
	var k int
	if _, err := fmt.Sscanf(name, "w%06d", &k); err != nil {
		return nil, fmt.Errorf("no generated instance %q", name)
	}
	_, in := p.written(k)
	return in, nil
}

// served is one served compare, kept for the re-check.
type served struct {
	left, right string
	score       float64
}

// serveBench is the running service and its client.
type serveBench struct {
	base    string
	hc      *http.Client
	rec     atomic.Pointer[Recorder]
	plan    *planner
	mu      sync.Mutex
	served  []served
	goldens map[int]float64
}

// request sends one JSON request and decodes the reply into out (if
// non-nil). parent and op link the server's handler span to the caller's.
func (b *serveBench) request(method, path string, body, out any, want, parent, op int) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, b.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(parent))
		req.Header.Set("X-Bench-Op", strconv.Itoa(op))
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, buf)
	}
	if out != nil {
		return json.Unmarshal(buf, out)
	}
	return nil
}

// do runs one operation and reports whether it succeeded.
func (b *serveBench) do(op serveOp, opID int) bool {
	rec := b.rec.Load()
	root := rec.Start("serve."+op.kind, 0, opID)
	var attrs map[string]float64
	defer func() { rec.End(root, attrs) }()
	switch op.kind {
	case "compare":
		var res serve.CompareResponse
		if err := b.request("POST", "/v1/compare", op.compare, &res, http.StatusOK, root, opID); err != nil {
			return false
		}
		if rec != nil && res.Stats != nil {
			attrs = statsAttrs(*res.Stats, res.Algorithm == "exact", res.Exhaustive)
		}
		b.mu.Lock()
		b.served = append(b.served, served{op.compare.Left, op.compare.Right, res.Score})
		if op.goldenIdx >= 0 {
			b.goldens[op.goldenIdx] = res.Score
		}
		b.mu.Unlock()
		return true
	case "rank":
		var res serve.RankResponse
		if err := b.request("POST", "/v1/rank", op.rank, &res, http.StatusOK, root, opID); err != nil {
			return false
		}
		attrs = map[string]float64{"probed": float64(res.Index.Probed), "shortlist_size": float64(res.Index.ShortlistSize)}
		return len(res.Results) == len(op.rank.Candidates) && !res.Index.FullScan
	default:
		if err := b.request("DELETE", "/v1/instances/"+op.del, nil, nil, http.StatusOK, root, opID); err != nil {
			return false
		}
		return b.request("POST", "/v1/instances", op.register, nil, http.StatusCreated, root, opID) == nil
	}
}

// closedLoop runs nproc clients back to back for d.
func (b *serveBench) closedLoop(d time.Duration, rec *Recorder) (*phase, int) {
	b.rec.Store(rec)
	defer b.rec.Store(nil)
	p := &phase{}
	var mu sync.Mutex
	var failed, ids int
	p.begin()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				op := b.plan.next()
				mu.Lock()
				ids++
				id := ids
				mu.Unlock()
				t0 := time.Now()
				ok := b.do(op, id)
				lat := time.Since(t0)
				mu.Lock()
				p.lats = append(p.lats, lat)
				if !ok {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.end(time.Since(start))
	p.spans = rec.Spans()
	return p, failed
}

// openLoop offers operations at serveRate with seeded exponential gaps for
// d, issued by at most nproc workers. Each latency counts from the
// operation's due time, so a stall also delays every operation behind it;
// lags records how late each operation started.
func (b *serveBench) openLoop(d time.Duration, rng *rand.Rand) (*phase, []time.Duration, int) {
	var due []time.Duration
	for t := time.Duration(0); t < d; t += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second)) {
		due = append(due, t)
	}
	p := &phase{}
	var mu sync.Mutex
	var lags []time.Duration
	var failed int
	var next atomic.Int64
	p.begin()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				op := b.plan.next()
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				lag := time.Since(at)
				ok := b.do(op, i+1)
				lat := time.Since(at)
				mu.Lock()
				p.lats = append(p.lats, lat)
				lags = append(lags, lag)
				if !ok {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.end(time.Since(start))
	return p, lags, failed
}

// serveInputs generates the initial registry contents.
func serveInputs(cfg config) ([]string, map[string]*instcmp.Instance, int) {
	n, count := serveRows, serveInstances
	if cfg.tiny {
		n, count = 10, 60
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	names := make([]string, count)
	insts := map[string]*instcmp.Instance{}
	for i := range names {
		names[i] = fmt.Sprintf("i%04d", i)
		insts[names[i]] = serveInstance(names[i], n, rng)
	}
	return names, insts, n
}

// register fills a fresh registry through serve.Registry.Register.
func register(names []string, insts map[string]*instcmp.Instance) (*serve.Registry, time.Duration, error) {
	reg := serve.NewRegistry()
	start := time.Now()
	for _, name := range names {
		if _, err := reg.Register(name, insts[name]); err != nil {
			return nil, 0, err
		}
	}
	return reg, time.Since(start), nil
}

// prepCache prepares generated instances by name, once each.
type prepCache struct {
	plan *planner
	m    map[string]*instcmp.Prepared
}

func (c *prepCache) get(name string) (*instcmp.Prepared, error) {
	if p, ok := c.m[name]; ok {
		return p, nil
	}
	in, err := c.plan.instance(name)
	if err != nil {
		return nil, err
	}
	p, err := instcmp.Prepare(in)
	c.m[name] = p
	return p, err
}

// libraryScore compares two generated instances through the library, as
// the service does with default options.
func (c *prepCache) libraryScore(l, r string) (float64, error) {
	lp, err := c.get(l)
	if err != nil {
		return 0, err
	}
	rp, err := c.get(r)
	if err != nil {
		return 0, err
	}
	res, err := instcmp.ComparePreparedContext(context.Background(), lp, rp, &instcmp.Options{SigWorkers: 1})
	if err != nil {
		return 0, err
	}
	return res.Score, nil
}

// serveGoldenRefs scores the plan's first serveGolden compares through the
// library.
func serveGoldenRefs(cfg config, names []string, insts map[string]*instcmp.Instance, n int) (map[string]string, error) {
	p := newPlanner(cfg.seed, n, names, insts)
	cache := &prepCache{p, map[string]*instcmp.Prepared{}}
	want := map[string]string{}
	for len(want) < serveGolden {
		op := p.next()
		if op.kind != "compare" {
			continue
		}
		s, err := cache.libraryScore(op.compare.Left, op.compare.Right)
		if err != nil {
			return nil, err
		}
		want[fmt.Sprintf("c%d", op.goldenIdx)] = bits(s)
	}
	return want, nil
}

func serveMixedReferences(cfg config) (map[string]string, error) {
	names, insts, n := serveInputs(cfg)
	return serveGoldenRefs(cfg, names, insts, n)
}

// runServeMixed drives an in-process instcmp-serve over loopback HTTP: an
// open-loop phase for latency, then a closed-loop phase for throughput.
func runServeMixed(cfg config) (*outcome, error) {
	names, insts, n := serveInputs(cfg)
	want, err := expectations(cfg, "serve-mixed", func() (map[string]string, error) {
		return serveGoldenRefs(cfg, names, insts, n)
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	var reg *serve.Registry
	o.setupS, o.setupReps, err = medianSetup(cfg, func() (time.Duration, error) {
		var d time.Duration
		reg, d, err = register(names, insts)
		return d, err
	})
	if err != nil {
		return nil, err
	}

	b := &serveBench{plan: newPlanner(cfg.seed, n, names, insts), goldens: map[int]float64{}}
	handler := serve.New(reg, serve.Options{}).Handler()
	// The wrapper records the handler's span, linked to the client's span
	// by request headers.
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := b.rec.Load()
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		opID, _ := strconv.Atoi(r.Header.Get("X-Bench-Op"))
		id := rec.Start("serve.handler", parent, opID)
		handler.ServeHTTP(w, r)
		rec.End(id, nil)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: wrapped}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-done
	}()
	b.base = "http://" + ln.Addr().String()
	b.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc()}}
	defer b.hc.CloseIdleConnections()

	// Warm-up: one rotation of the mix's shape, untimed.
	warm := 20
	for i := 0; i < warm; i++ {
		if !b.do(b.plan.next(), 0) {
			o.failed++
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	queueWaits := func() float64 {
		v, _ := expvar.Get("instcmp.serve").(*expvar.Map).Get("queue_waits").(*expvar.Int)
		if v == nil {
			return 0
		}
		return float64(v.Value())
	}
	if !cfg.trace {
		open, lags, f1 := b.openLoop(cfg.seconds/2, rng)
		closed, f2 := b.closedLoop(cfg.seconds/2, nil)
		o.lat, o.thr = open, closed
		o.failed += f1 + f2
		o.attempted = warm + open.ops + closed.ops
		p99 := ms(percentile(open.lats, 0.99))
		o.notes = append(o.notes, fmt.Sprintf("serve-mixed open loop: offered %.0f ops/s, achieved %.1f ops/s, p99 %.3g ms (limit %.0f ms, %s), lag p99 %.3g ms",
			serveRate, open.throughput(), p99, serveP99LimitMS, map[bool]string{true: "met", false: "missed"}[p99 <= serveP99LimitMS], ms(percentile(lags, 0.99))))
	} else {
		open, lags, f0 := b.openLoop(cfg.seconds/3, rng)
		qw0 := queueWaits()
		run := func(d time.Duration, rec *Recorder) (*phase, int) { return b.closedLoop(d, rec) }
		plain, tr, f, overhead := tracedRun(2*cfg.seconds/3, NewRecorder(), run)
		o.failed += f0 + f
		o.attempted = warm + open.ops + plain.ops + tr.ops
		o.spans = tr.spans
		reqs := 0.0
		for _, s := range o.spans {
			if s.Name == "serve.handler" {
				reqs++
			}
		}
		var rootMS float64
		for _, k := range []string{"serve.compare", "serve.rank", "serve.write"} {
			for _, s := range spansOf(o.spans, k) {
				rootMS += ms(s.Duration())
			}
		}
		handlerMS := meanMS(o.spans, "serve.handler")
		var cands []lake.PreparedCandidate
		for _, e := range reg.List() {
			cands = append(cands, lake.PreparedCandidate{Name: e.Name, Prepared: e.Prepared})
		}
		sketchUS, addUS, shortlistUS, err := indexProbe(cands)
		if err != nil {
			return nil, err
		}
		o.layers = map[string]float64{
			"serve.compare_p50_ms":     p50MS(o.spans, "serve.compare"),
			"serve.rank_p50_ms":        p50MS(o.spans, "serve.rank"),
			"serve.write_p50_ms":       p50MS(o.spans, "serve.write"),
			"serve.handler_ms":         handlerMS,
			"serve.http_overhead_ms":   ratio(rootMS, reqs) - handlerMS,
			"serve.queue_waits_per_1k": 1000 * ratio(queueWaits()-qw0, reqs),
			"lakeindex.sketch_us":      sketchUS,
			"lakeindex.dynamic_add_us": addUS,
			"lakeindex.shortlist_us":   shortlistUS,
			"lakeindex.probed":         mean(attrValues(o.spans, "serve.rank", "probed")),
			"lake.shortlist_size":      mean(attrValues(o.spans, "serve.rank", "shortlist_size")),
			"loadgen.lag_p99_ms":       ms(percentile(lags, 0.99)),
			"loadgen.achieved_rps":     open.throughput(),
		}
		compareLayers(attrsOf(o.spans, "serve.compare"), o.layers)
		runtimeLayers(plain, overhead, o.layers)
	}
	failed, allocKB, err := b.recheck(want)
	if err != nil {
		return nil, err
	}
	o.failed += failed
	if cfg.trace {
		o.layers["compare.alloc_kb_per_call"] = allocKB
	}
	return o, nil
}

// recheck compares evenly spaced served scores, and the plan's first
// compares, bit for bit with the library, and returns the mismatches and
// the library compare's allocation per call.
func (b *serveBench) recheck(want map[string]string) (int, float64, error) {
	failed := 0
	for i := 0; i < serveGolden; i++ {
		s, ok := b.goldens[i]
		if !ok || bits(s) != want[fmt.Sprintf("c%d", i)] {
			failed++
		}
	}
	if len(b.served) == 0 {
		return failed, 0, errors.New("no compare was served")
	}
	cache := &prepCache{b.plan, map[string]*instcmp.Prepared{}}
	var allocs []float64
	n := min(serveChecks, len(b.served))
	for k := 0; k < n; k++ {
		s := b.served[k*len(b.served)/n]
		// Prepare outside the allocation count, as the registry does.
		if _, err := cache.get(s.left); err != nil {
			return 0, 0, err
		}
		if _, err := cache.get(s.right); err != nil {
			return 0, 0, err
		}
		u := readUsage()
		score, err := cache.libraryScore(s.left, s.right)
		allocs = append(allocs, allocSince(u)/1e3)
		if err != nil {
			return 0, 0, err
		}
		if bits(score) != bits(s.score) {
			failed++
		}
	}
	return failed, mean(allocs), nil
}

// indexProbe times the lakeindex calls a registry makes per instance, over
// the given prepared instances: NewSketch, (*Dynamic).Add into a fresh
// index, and a Shortlist per instance at the rank requests' target of 8.
func indexProbe(cands []lake.PreparedCandidate) (sketchUS, addUS, shortlistUS float64, err error) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(len(cands)) }
	sks := make([]*lakeindex.Sketch, len(cands))
	start := time.Now()
	for i, c := range cands {
		sks[i] = lakeindex.NewSketch(c.Prepared.SketchFeatures())
	}
	sketchUS = us(time.Since(start))
	d := lakeindex.NewDynamic()
	start = time.Now()
	for i, c := range cands {
		d.Add(c.Name, sks[i])
	}
	addUS = us(time.Since(start))
	if d.Len() != len(cands) {
		return 0, 0, 0, fmt.Errorf("dynamic index holds %d of %d sketches", d.Len(), len(cands))
	}
	start = time.Now()
	for _, sk := range sks {
		d.Shortlist(sk, 8)
	}
	return sketchUS, addUS, us(time.Since(start)), nil
}

// p50MS is the median duration of the named spans in milliseconds.
func p50MS(spans []Span, name string) float64 {
	var ds []time.Duration
	for _, s := range spansOf(spans, name) {
		ds = append(ds, s.Duration())
	}
	return ms(percentile(ds, 0.5))
}
