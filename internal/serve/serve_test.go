package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"instcmp"
)

func wireSingle(name string, rows [][]string) WireInstance {
	return WireInstance{Relations: []WireRelation{{
		Name:   name,
		Attrs:  []string{"A", "B"},
		Tuples: rows,
	}}}
}

func TestWireDecodeEncodeRoundTrip(t *testing.T) {
	w := wireSingle("R", [][]string{{"x", "_:N1"}, {"_:N2", "y"}})
	in, err := w.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if in.NumTuples() != 2 {
		t.Fatalf("decoded %d tuples, want 2", in.NumTuples())
	}
	vals := in.Relation("R").Tuples[0].Values
	if !vals[0].IsConst() || vals[0].Raw() != "x" {
		t.Errorf("cell 0 decoded as %#v", vals[0])
	}
	if !vals[1].IsNull() || vals[1].Raw() != "N1" {
		t.Errorf("cell 1 decoded as %#v, want null N1", vals[1])
	}
	back := EncodeInstance(in)
	buf1, _ := json.Marshal(w)
	buf2, _ := json.Marshal(back)
	if !bytes.Equal(buf1, buf2) {
		t.Errorf("round trip changed the instance:\n%s\n%s", buf1, buf2)
	}
}

func TestWireDecodeRejectsMalformedInstances(t *testing.T) {
	cases := []struct {
		name string
		w    WireInstance
	}{
		{"no relations", WireInstance{}},
		{"empty relation name", wireSingle("", nil)},
		{"no attrs", WireInstance{Relations: []WireRelation{{Name: "R"}}}},
		{"arity mismatch", wireSingle("R", [][]string{{"only-one-cell"}})},
		{"duplicate relation", WireInstance{Relations: []WireRelation{
			{Name: "R", Attrs: []string{"A"}},
			{Name: "R", Attrs: []string{"A"}},
		}}},
	}
	for _, tc := range cases {
		if _, err := tc.w.Decode(); err == nil {
			t.Errorf("%s: Decode accepted a malformed instance", tc.name)
		}
	}
}

func TestRegistryLifecycle(t *testing.T) {
	g := NewRegistry()
	in, err := wireSingle("R", [][]string{{"x", "y"}}).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Register("a", in); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Register("a", in); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, err := g.Register("", in); err == nil {
		t.Error("empty name accepted")
	}
	if e, ok := g.Get("a"); !ok || e.Name != "a" {
		t.Errorf("Get(a) = %v, %v", e, ok)
	}
	if _, err := g.Register("b", in); err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, e := range g.List() {
		names = append(names, e.Name)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("List() = %v, want [a b]", names)
	}
	if !g.Delete("a") || g.Delete("a") {
		t.Error("Delete should succeed once and then report absent")
	}
	if g.Len() != 1 {
		t.Errorf("Len() = %d, want 1", g.Len())
	}
}

// TestRegistryConcurrentUse hammers the registry from concurrent
// goroutines — registrations, deletions, listings, and comparisons against
// a shared resident entry — and is meaningful under -race: the registry's
// lock discipline and the immutability of prepared state are what keep it
// silent.
func TestRegistryConcurrentUse(t *testing.T) {
	g := NewRegistry()
	base, err := wireSingle("R", [][]string{{"x", "_:L1"}, {"z", "w"}}).Decode()
	if err != nil {
		t.Fatal(err)
	}
	other, err := wireSingle("R", [][]string{{"x", "_:R1"}, {"p", "q"}}).Decode()
	if err != nil {
		t.Fatal(err)
	}
	shared, err := g.Register("shared", base)
	if err != nil {
		t.Fatal(err)
	}
	right, err := g.Register("right", other)
	if err != nil {
		t.Fatal(err)
	}
	want, err := instcmp.ComparePrepared(shared.Prepared, right.Prepared, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	// Two goroutines comparing against the same Prepared entries...
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				res, err := instcmp.ComparePrepared(shared.Prepared, right.Prepared, nil)
				if err != nil {
					errc <- err
					return
				}
				if math.Float64bits(res.Score) != math.Float64bits(want.Score) {
					errc <- fmt.Errorf("concurrent score %v != %v", res.Score, want.Score)
					return
				}
			}
		}()
	}
	// ...while others churn the registry around them.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("churn%d", i)
			for j := 0; j < 20; j++ {
				if _, err := g.Register(name, base); err != nil {
					errc <- err
					return
				}
				g.List()
				g.Get("shared")
				g.Delete(name)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// newTestServer spins up the full HTTP stack over a fresh registry.
func newTestServer(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry()
	ts := httptest.NewServer(New(reg, Options{Workers: 2}).Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func register(t *testing.T, ts *httptest.Server, name string, w WireInstance) {
	t.Helper()
	status := postJSON(t, ts.URL+"/v1/instances", RegisterRequest{Name: name, Instance: w}, nil)
	if status != http.StatusCreated {
		t.Fatalf("register %s: status %d", name, status)
	}
}

func TestServerCompareRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	register(t, ts, "left", wireSingle("R", [][]string{{"x", "_:L1"}, {"a", "b"}}))
	register(t, ts, "right", wireSingle("R", [][]string{{"x", "_:R1"}, {"a", "b"}}))

	var out CompareResponse
	status := postJSON(t, ts.URL+"/v1/compare", CompareRequest{Left: "left", Right: "right"}, &out)
	if status != http.StatusOK {
		t.Fatalf("compare: status %d", status)
	}
	if out.Score != 1 {
		t.Errorf("isomorphic instances scored %v, want 1", out.Score)
	}
	if out.Stats == nil {
		t.Error("compare response carries no stats")
	}

	// The same comparison through the library gives the same score.
	l, _ := wireSingle("R", [][]string{{"x", "_:L1"}, {"a", "b"}}).Decode()
	r, _ := wireSingle("R", [][]string{{"x", "_:R1"}, {"a", "b"}}).Decode()
	res, err := instcmp.Compare(l, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Score) != math.Float64bits(out.Score) {
		t.Errorf("served score %v != library score %v", out.Score, res.Score)
	}
}

func TestServerExplainCarriesMatch(t *testing.T) {
	ts, _ := newTestServer(t)
	register(t, ts, "left", wireSingle("R", [][]string{{"x", "_:L1"}, {"solo", "left"}}))
	register(t, ts, "right", wireSingle("R", [][]string{{"x", "y"}}))

	var out ExplainResponse
	status := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{Left: "left", Right: "right"}, &out)
	if status != http.StatusOK {
		t.Fatalf("explain: status %d", status)
	}
	if len(out.Pairs) != 1 {
		t.Fatalf("pairs = %+v, want exactly one", out.Pairs)
	}
	if out.Pairs[0].Relation != "R" {
		t.Errorf("pair relation %q", out.Pairs[0].Relation)
	}
	if len(out.LeftUnmatched) != 1 {
		t.Errorf("left unmatched = %v, want one tuple", out.LeftUnmatched)
	}
	// The left null L1 was matched against the constant y.
	if got := out.LeftValueMapping["_:L1"]; got != "y" {
		t.Errorf("value mapping for _:L1 = %q, want y", got)
	}
}

func TestServerRankOrdersCandidates(t *testing.T) {
	ts, _ := newTestServer(t)
	register(t, ts, "example", wireSingle("R", [][]string{{"x", "y"}, {"p", "q"}}))
	// near: same rows, table named differently inside the instance — name
	// alignment must kick in through the prepared view.
	register(t, ts, "near", WireInstance{Relations: []WireRelation{{
		Name: "other", Attrs: []string{"A", "B"},
		Tuples: [][]string{{"x", "y"}, {"p", "q"}},
	}}})
	register(t, ts, "far", wireSingle("R", [][]string{{"no", "overlap"}}))

	var out RankResponse
	status := postJSON(t, ts.URL+"/v1/rank", RankRequest{Example: "example"}, &out)
	if status != http.StatusOK {
		t.Fatalf("rank: status %d", status)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results = %+v, want 2", out.Results)
	}
	if out.Results[0].Name != "near" || out.Results[1].Name != "far" {
		t.Errorf("ranking order %v, want [near far]", out.Results)
	}
	if out.Results[0].Score != 1 {
		t.Errorf("near scored %v, want 1", out.Results[0].Score)
	}
}

func TestServerDeadlineDegradesToStopped(t *testing.T) {
	ts, _ := newTestServer(t)
	// Overlapping-but-conflicting constant patterns: the signature warm
	// start cannot reach the optimistic bound, so the exact search has real
	// work to do and a one-node budget must trip.
	rows := make([][]string, 24)
	for i := range rows {
		rows[i] = []string{fmt.Sprintf("v%d", i%4), fmt.Sprintf("w%d", i%3)}
	}
	register(t, ts, "left", wireSingle("R", rows))
	rows2 := make([][]string, 24)
	for i := range rows2 {
		rows2[i] = []string{fmt.Sprintf("v%d", (i+1)%4), fmt.Sprintf("_:n%d", i)}
	}
	register(t, ts, "right", wireSingle("R", rows2))

	// A one-node exact budget cannot finish a 48-tuple search: the
	// response must be a 200 carrying the warm-started best match with
	// stopped set, not an error.
	var out CompareResponse
	status := postJSON(t, ts.URL+"/v1/compare", CompareRequest{
		Left: "left", Right: "right",
		Options: WireOptions{Algorithm: "exact", ExactMaxNodes: 1},
	}, &out)
	if status != http.StatusOK {
		t.Fatalf("budgeted compare: status %d", status)
	}
	if out.Stopped == "" {
		t.Error("budget-bound comparison did not report stopped")
	}
	if out.Score <= 0 {
		t.Errorf("stopped comparison lost its anytime result: score %v", out.Score)
	}
}

func TestServerErrorCases(t *testing.T) {
	ts, _ := newTestServer(t)
	register(t, ts, "a", wireSingle("R", [][]string{{"x", "y"}}))

	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"unknown left", "/v1/compare", CompareRequest{Left: "ghost", Right: "a"}, http.StatusNotFound},
		{"unknown right", "/v1/compare", CompareRequest{Left: "a", Right: "ghost"}, http.StatusNotFound},
		{"bad mode", "/v1/compare", CompareRequest{Left: "a", Right: "a", Options: WireOptions{Mode: "zigzag"}}, http.StatusBadRequest},
		{"bad algorithm", "/v1/compare", CompareRequest{Left: "a", Right: "a", Options: WireOptions{Algorithm: "quantum"}}, http.StatusBadRequest},
		{"bad lambda", "/v1/compare", CompareRequest{Left: "a", Right: "a", Options: WireOptions{Lambda: 2}}, http.StatusUnprocessableEntity},
		{"duplicate register", "/v1/instances", RegisterRequest{Name: "a", Instance: wireSingle("R", nil)}, http.StatusConflict},
		{"invalid instance", "/v1/instances", RegisterRequest{Name: "b", Instance: WireInstance{}}, http.StatusBadRequest},
		{"unknown rank example", "/v1/rank", RankRequest{Example: "ghost"}, http.StatusNotFound},
		{"unknown rank candidate", "/v1/rank", RankRequest{Example: "a", Candidates: []string{"ghost"}}, http.StatusNotFound},
	}
	for _, tc := range cases {
		var e errorResponse
		if status := postJSON(t, ts.URL+tc.path, tc.body, &e); status != tc.status {
			t.Errorf("%s: status %d, want %d (error %q)", tc.name, status, tc.status, e.Error)
		} else if e.Error == "" {
			t.Errorf("%s: no error message in body", tc.name)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/instances/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown instance: status %d", resp.StatusCode)
	}
}

func TestServerListAndDelete(t *testing.T) {
	ts, _ := newTestServer(t)
	register(t, ts, "b", wireSingle("R", [][]string{{"x", "y"}}))
	register(t, ts, "a", wireSingle("R", [][]string{{"x", "_:n"}}))

	resp, err := http.Get(ts.URL + "/v1/instances")
	if err != nil {
		t.Fatal(err)
	}
	var infos []InstanceInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("list = %+v, want [a b]", infos)
	}
	if infos[0].Tuples != 1 || infos[0].Nulls != 1 {
		t.Errorf("info for a = %+v", infos[0])
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/instances/a", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("delete: status %d", dresp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("expvar endpoint: status %d", resp2.StatusCode)
	}
}

// TestRegistryMaintainsSketchIndex pins the register/delete ↔ index
// contract: every registered instance becomes probe-able, and deletion
// unindexes it.
func TestRegistryMaintainsSketchIndex(t *testing.T) {
	g := NewRegistry()
	in, err := wireSingle("R", [][]string{{"x", "y"}, {"p", "q"}}).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Register("a", in); err != nil {
		t.Fatal(err)
	}
	if !g.Index().Contains("a") || g.Index().Len() != 1 {
		t.Fatalf("index after register: Contains=%v Len=%d", g.Index().Contains("a"), g.Index().Len())
	}
	// A failed duplicate registration must not disturb the index.
	if _, err := g.Register("a", in); err == nil {
		t.Fatal("duplicate accepted")
	}
	if g.Index().Len() != 1 {
		t.Errorf("index grew on failed registration: Len=%d", g.Index().Len())
	}
	g.Delete("a")
	if g.Index().Contains("a") || g.Index().Len() != 0 {
		t.Errorf("index after delete: Contains=%v Len=%d", g.Index().Contains("a"), g.Index().Len())
	}
}

// TestServerRankProbesIndex exercises /rank through the resident sketch
// index: a small shortlist leaves distant candidates index-pruned, while
// no_index compares everything — and both agree on the winner.
func TestServerRankProbesIndex(t *testing.T) {
	ts, _ := newTestServer(t)
	register(t, ts, "example", wireSingle("R", [][]string{{"x", "y"}, {"p", "q"}, {"u", "v"}}))
	register(t, ts, "twin", wireSingle("R", [][]string{{"p", "q"}, {"x", "y"}, {"u", "v"}}))
	for i := 0; i < 9; i++ {
		register(t, ts, fmt.Sprintf("noise-%d", i), wireSingle("R", [][]string{
			{fmt.Sprintf("n%da", i), fmt.Sprintf("n%db", i)},
			{fmt.Sprintf("n%dc", i), fmt.Sprintf("n%dd", i)},
		}))
	}

	var indexed RankResponse
	status := postJSON(t, ts.URL+"/v1/rank", RankRequest{
		Example: "example", TopK: 1, MinShortlist: 2,
	}, &indexed)
	if status != http.StatusOK {
		t.Fatalf("indexed rank: status %d", status)
	}
	if indexed.Index.FullScan {
		t.Fatalf("indexed rank fell back to a full scan: %+v", indexed.Index)
	}
	if got, want := indexed.Index.ShortlistSize, 4; got != want {
		t.Errorf("shortlist size = %d, want %d", got, want)
	}
	if len(indexed.Results) != 10 {
		t.Fatalf("results = %d, want all 10 candidates", len(indexed.Results))
	}
	if indexed.Results[0].Name != "twin" || indexed.Results[0].Score != 1 {
		t.Errorf("top result = %+v, want twin at score 1", indexed.Results[0])
	}
	pruned := 0
	for _, r := range indexed.Results {
		if r.Pruned {
			pruned++
		}
	}
	if pruned != 10-indexed.Index.ShortlistSize {
		t.Errorf("pruned = %d, want %d index-pruned candidates", pruned, 10-indexed.Index.ShortlistSize)
	}

	var full RankResponse
	status = postJSON(t, ts.URL+"/v1/rank", RankRequest{Example: "example", NoIndex: true}, &full)
	if status != http.StatusOK {
		t.Fatalf("no_index rank: status %d", status)
	}
	if !full.Index.FullScan || full.Index.ShortlistSize != 10 {
		t.Errorf("no_index stats = %+v, want a full scan over 10", full.Index)
	}
	if full.Results[0].Name != indexed.Results[0].Name {
		t.Errorf("index and full scan disagree on the winner: %q vs %q",
			indexed.Results[0].Name, full.Results[0].Name)
	}
}

// TestServerRankRejectsInvalidOptions pins that out-of-range ranking
// options are a bad request: a negative max_sample used to rank with a
// one-constant sample and answer 200.
func TestServerRankRejectsInvalidOptions(t *testing.T) {
	ts, _ := newTestServer(t)
	register(t, ts, "example", wireSingle("R", [][]string{{"x", "y"}, {"p", "q"}}))
	register(t, ts, "cand", wireSingle("R", [][]string{{"x", "y"}, {"p", "z"}}))
	cases := map[string]RankRequest{
		"negative max_sample":            {Example: "example", MaxSample: -1},
		"min_value_overlap above 1":      {Example: "example", MinValueOverlap: 1.5},
		"negative min_value_overlap":     {Example: "example", MinValueOverlap: -0.1},
		"negative top_k":                 {Example: "example", TopK: -1},
		"negative min_shortlist":         {Example: "example", MinShortlist: -1},
		"negative per_candidate_timeout": {Example: "example", PerCandidateTimeoutMS: -1},
	}
	for name, req := range cases {
		var e errorResponse
		if status := postJSON(t, ts.URL+"/v1/rank", req, &e); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want %d (error %q)", name, status, http.StatusBadRequest, e.Error)
		} else if e.Error == "" {
			t.Errorf("%s: no error message in body", name)
		}
	}
}
