// Package serve implements instcmp-serve, the resident-registry comparison
// service: instances are registered once, held in prepared form
// (instcmp.Prepared), and compared many times over HTTP without paying
// normalization or coding per request.
//
// The service inherits the engine's anytime contract: a request deadline
// (options.timeout_ms, or the engines' own budgets) does not fail the
// request — the response carries the best match found so far with "stopped"
// set, exactly like Result.Stopped in the library API. Comparison endpoints
// run on a bounded worker pool so a burst of expensive comparisons degrades
// to queueing (and then to deadline-degraded responses) instead of
// oversubscribing the machine.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"instcmp"
	"instcmp/internal/lake"
	"instcmp/internal/lakeindex"
)

// vars exports cumulative service counters (expvar key "instcmp.serve"):
// requests, registered, deleted, compares, ranks, explains, stopped,
// errors, queue_waits.
var vars = expvar.NewMap("instcmp.serve")

// Options configures a Server.
type Options struct {
	// Workers bounds concurrently running comparison requests
	// (compare/rank/explain); 0 means GOMAXPROCS. Requests beyond the
	// bound queue until a worker frees up or their deadline expires.
	Workers int
	// MaxBodyBytes caps request body size (0 = 64 MiB).
	MaxBodyBytes int64
}

// Server is the HTTP comparison service over one registry.
type Server struct {
	reg     *Registry
	sem     chan struct{}
	maxBody int64
	mux     *http.ServeMux
}

// New builds a server over the registry.
func New(reg *Registry, opt Options) *Server {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxBody := opt.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 64 << 20
	}
	s := &Server{
		reg:     reg,
		sem:     make(chan struct{}, workers),
		maxBody: maxBody,
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/instances", s.handleList)
	s.mux.HandleFunc("POST /v1/instances", s.handleRegister)
	s.mux.HandleFunc("GET /v1/instances/{name}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/instances/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/compare", s.handleCompare)
	s.mux.HandleFunc("POST /v1/explain", s.handleExplain)
	s.mux.HandleFunc("POST /v1/rank", s.handleRank)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		vars.Add("requests", 1)
		s.mux.ServeHTTP(w, r)
	})
}

// acquire claims a worker slot, waiting until one frees up or the request
// context ends. It returns a release func, or ctx's error.
func (s *Server) acquire(ctx context.Context) (func(), error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
	}
	// Pool exhausted: queue (counted) until a slot or the deadline.
	vars.Add("queue_waits", 1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	vars.Add("errors", 1)
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes a JSON body with a size cap and strict field checking.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "instances": s.reg.Len()})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	infos := []InstanceInfo{}
	for _, e := range s.reg.List() {
		infos = append(infos, e.Info())
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	in, err := req.Instance.Decode()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid instance: %v", err)
		return
	}
	e, err := s.reg.Register(req.Name, in)
	if err != nil {
		status := http.StatusBadRequest
		if _, dup := s.reg.Get(req.Name); dup {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	vars.Add("registered", 1)
	writeJSON(w, http.StatusCreated, e.Info())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown instance %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, e.Info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.reg.Delete(r.PathValue("name")) {
		writeError(w, http.StatusNotFound, "unknown instance %q", r.PathValue("name"))
		return
	}
	vars.Add("deleted", 1)
	writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
}

// requestContext derives the comparison context: the request's own context
// (canceled when the client disconnects) bounded by the options deadline.
func requestContext(r *http.Request, opt *WireOptions) (context.Context, context.CancelFunc) {
	if d := opt.timeout(); d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return r.Context(), func() {}
}

// runCompare resolves the two named entries and runs one prepared
// comparison on the worker pool.
func (s *Server) runCompare(w http.ResponseWriter, r *http.Request, left, right string, wopt *WireOptions) (*instcmp.Result, bool) {
	opt, err := wopt.engineOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	le, ok := s.reg.Get(left)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown instance %q", left)
		return nil, false
	}
	re, ok := s.reg.Get(right)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown instance %q", right)
		return nil, false
	}
	ctx, cancel := requestContext(r, wopt)
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "no worker available before deadline: %v", err)
		return nil, false
	}
	defer release()
	res, err := instcmp.ComparePreparedContext(ctx, le.Prepared, re.Prepared, opt)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return nil, false
	}
	if res.Stopped != "" {
		vars.Add("stopped", 1)
	}
	return res, true
}

func compareResponse(req CompareRequest, res *instcmp.Result, withStats bool) CompareResponse {
	out := CompareResponse{
		Left:       req.Left,
		Right:      req.Right,
		Score:      res.Score,
		Algorithm:  res.Algorithm.String(),
		Exhaustive: res.Exhaustive,
		Stopped:    res.Stopped,
		Mapping:    wireMapping(res.Mapping),
		ElapsedMS:  float64(res.Elapsed) / float64(time.Millisecond),
	}
	if withStats {
		st := res.Stats
		out.Stats = &st
	}
	return out
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req CompareRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	res, ok := s.runCompare(w, r, req.Left, req.Right, &req.Options)
	if !ok {
		return
	}
	vars.Add("compares", 1)
	writeJSON(w, http.StatusOK, compareResponse(req, res, true))
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	res, ok := s.runCompare(w, r, req.Left, req.Right, &req.Options)
	if !ok {
		return
	}
	vars.Add("explains", 1)
	out := ExplainResponse{
		CompareResponse:   compareResponse(CompareRequest(req), res, false),
		Pairs:             []WirePair{},
		LeftUnmatched:     []int64{},
		RightUnmatched:    []int64{},
		LeftValueMapping:  map[string]string{},
		RightValueMapping: map[string]string{},
	}
	for _, p := range res.Pairs {
		out.Pairs = append(out.Pairs, WirePair{
			Relation: p.Relation,
			LeftID:   int64(p.LeftID),
			RightID:  int64(p.RightID),
			Score:    p.Score,
		})
	}
	for _, id := range res.LeftUnmatched {
		out.LeftUnmatched = append(out.LeftUnmatched, int64(id))
	}
	for _, id := range res.RightUnmatched {
		out.RightUnmatched = append(out.RightUnmatched, int64(id))
	}
	for k, v := range res.LeftValueMapping {
		out.LeftValueMapping[k.String()] = v.String()
	}
	for k, v := range res.RightValueMapping {
		out.RightValueMapping[k.String()] = v.String()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var req RankRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	mode, err := parseMode(req.Options.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ex, ok := s.reg.Get(req.Example)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown instance %q", req.Example)
		return
	}
	cands, err := s.reg.Candidates(req.Example, req.Candidates)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	ctx, cancel := requestContext(r, &req.Options)
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "no worker available before deadline: %v", err)
		return
	}
	defer release()
	start := time.Now()
	// The registry's resident sketch index narrows the ranking to a
	// shortlist; no_index (or a lake smaller than the shortlist) degrades
	// to the full scan transparently.
	var idx lakeindex.Searcher
	if !req.NoIndex {
		idx = s.reg.Index()
	}
	results, ist, err := lake.RankIndexedContext(ctx, ex.Prepared, cands, idx, lake.Options{
		MinValueOverlap:     req.MinValueOverlap,
		MaxSample:           req.MaxSample,
		Lambda:              req.Options.Lambda,
		ExplicitZeroLambda:  req.Options.ExplicitZeroLambda,
		Mode:                mode,
		Workers:             req.Workers,
		SigWorkers:          req.Options.SigWorkers,
		PerCandidateTimeout: time.Duration(req.PerCandidateTimeoutMS) * time.Millisecond,
		TopK:                req.TopK,
		MinShortlist:        req.MinShortlist,
		DiscoverMapping:     req.DiscoverMapping,
	})
	if err != nil {
		// A canceled ranking is a deadline outcome, not a bad request:
		// report it as such so load clients can tell the cases apart.
		status := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, lake.ErrInvalidOptions):
			status = http.StatusBadRequest
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			status = http.StatusRequestTimeout
			vars.Add("stopped", 1)
		}
		writeError(w, status, "%v", err)
		return
	}
	vars.Add("ranks", 1)
	out := RankResponse{
		Example: req.Example,
		Results: []RankedResult{},
		Index: RankIndexInfo{
			FullScan:      ist.FullScan,
			Probed:        ist.Probed,
			Widened:       ist.Widened,
			ShortlistSize: ist.ShortlistSize,
			Unindexed:     ist.Unindexed,
			SketchBuildMS: float64(ist.SketchBuild) / float64(time.Millisecond),
		},
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	for _, res := range results {
		rr := RankedResult{
			Name:     res.Name,
			Score:    res.Score,
			Overlap:  res.Overlap,
			Pruned:   res.Pruned,
			TimedOut: res.TimedOut,
		}
		if res.Mapping != nil {
			rr.MappingConfidence = res.Mapping.Confidence
		}
		out.Results = append(out.Results, rr)
	}
	writeJSON(w, http.StatusOK, out)
}
