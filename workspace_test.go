package instcmp

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"instcmp/internal/datasets"
	"instcmp/internal/generator"
)

// countdownCtx reports cancellation from its n-th Err call on, so a
// single-worker compare stops at the same point on every run.
type countdownCtx struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// wsCase is one compare of the isolation sequence.
type wsCase struct {
	name        string
	left, right *Prepared
	opt         Options
	cancelAfter int // > 0 cancels at that context poll
}

// wsScenario prepares a generated source/target pair.
func wsScenario(t *testing.T, name datasets.Name, rows int, seed int64) (*Prepared, *Prepared) {
	t.Helper()
	base, err := datasets.Generate(name, rows, seed)
	if err != nil {
		t.Fatal(err)
	}
	sc := generator.Make(base, generator.Noise{CellPct: 0.05, NullReuse: 0.3, Seed: seed})
	l, err := Prepare(sc.Source)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Prepare(sc.Target)
	if err != nil {
		t.Fatal(err)
	}
	return l, r
}

// wsCases is the mixed sequence: a large signature compare, a small one,
// an exact n-to-m search, a partial compare with Levenshtein, a compare
// that discovers a mapping, a canceled compare, and the large one again.
func wsCases(t *testing.T) []wsCase {
	bigL, bigR := wsScenario(t, datasets.Doct, 10000, 1)
	smallL, smallR := wsScenario(t, datasets.Doct, 24, 2)
	exL, exR := wsScenario(t, datasets.Doct, 12, 3)
	bikeL, bikeR := wsScenario(t, datasets.Bike, 100, 4)
	drifted := smallR.Instance().Clone()
	for _, rel := range drifted.Relations() {
		rel.Attrs[0] = rel.Attrs[0] + "_renamed"
	}
	driftR, err := Prepare(drifted)
	if err != nil {
		t.Fatal(err)
	}
	sig := Options{Algorithm: AlgoSignature, SigWorkers: 1}
	return []wsCase{
		{"large", bigL, bigR, sig, 0},
		{"small", smallL, smallR, sig, 0},
		{"exact-ntom", exL, exR, Options{Algorithm: AlgoExact, Mode: ManyToMany, SigWorkers: 1}, 0},
		{"partial-levenshtein", bikeL, bikeR, Options{Algorithm: AlgoSignature, Mode: ManyToMany, Partial: true,
			ConstSimilarity: Levenshtein, SigWorkers: 1}, 0},
		{"discover", smallL, driftR, Options{Algorithm: AlgoSignature, DiscoverMapping: true, SigWorkers: 1}, 0},
		{"canceled", bigL, bigR, sig, 40},
		{"large-again", bigL, bigR, sig, 0},
	}
}

// run compares c on ws.
func (c wsCase) run(t *testing.T, ws *workspace) *Result {
	t.Helper()
	ctx := context.Context(context.Background())
	if c.cancelAfter > 0 {
		ctx = &countdownCtx{Context: ctx, n: c.cancelAfter}
	}
	opt := c.opt
	if err := opt.validate(); err != nil {
		t.Fatal(err)
	}
	res, err := ws.compare(ctx, c.left, c.right, &opt, time.Now())
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if c.cancelAfter > 0 && res.Stopped == "" {
		t.Fatalf("%s: compare was not stopped", c.name)
	}
	return res
}

// resultView is what must not change across compares: the match, the
// unmatched IDs, the value mappings, the counters and the score bits.
type resultView struct {
	Pairs                               []MatchedPair
	LeftUnmatched, RightUnmatched       []TupleID
	LeftValueMapping, RightValueMapping map[Value]Value
	Counters                            [4]int64
	ScoreBits, AfterSigBits             uint64
	Stopped                             string
}

func viewOf(r *Result) resultView {
	return resultView{
		Pairs:             append([]MatchedPair(nil), r.Pairs...),
		LeftUnmatched:     append([]TupleID(nil), r.LeftUnmatched...),
		RightUnmatched:    append([]TupleID(nil), r.RightUnmatched...),
		LeftValueMapping:  cloneMapping(r.LeftValueMapping),
		RightValueMapping: cloneMapping(r.RightValueMapping),
		Counters:          [4]int64{r.Stats.PairAttempts, r.Stats.PairRejects, r.Stats.ScoreEvals, r.Stats.Nodes},
		ScoreBits:         math.Float64bits(r.Score),
		AfterSigBits:      math.Float64bits(r.Stats.ScoreAfterSig),
		Stopped:           r.Stopped,
	}
}

func cloneMapping(m map[Value]Value) map[Value]Value {
	out := make(map[Value]Value, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestWorkspaceIsolation runs the mixed sequence through one workspace:
// every result stays what it was after the later compares, and equals the
// same compare run alone on a fresh workspace.
func TestWorkspaceIsolation(t *testing.T) {
	cases := wsCases(t)
	ws := newWorkspace()
	results := make([]*Result, len(cases))
	views := make([]resultView, len(cases))
	for i, c := range cases {
		results[i] = c.run(t, ws)
		views[i] = viewOf(results[i])
		for j := 0; j < i; j++ {
			if got := viewOf(results[j]); !reflect.DeepEqual(got, views[j]) {
				t.Errorf("%s's result changed after compare %s", cases[j].name, c.name)
			}
		}
	}
	for i, c := range cases {
		if alone := viewOf(c.run(t, newWorkspace())); !reflect.DeepEqual(alone, views[i]) {
			t.Errorf("%s on a used workspace differs from a fresh one:\nused  %+v\nfresh %+v", c.name, views[i].Counters, alone.Counters)
		}
	}
	if !reflect.DeepEqual(views[0], views[len(views)-1]) {
		t.Error("the large compare differs when run again after the others")
	}
	if ws.env.Left != nil || ws.env.Right != nil || ws.env.In.Len() != 0 {
		t.Error("the workspace still references the last compared instances")
	}
	for _, c := range cases {
		c.run(t, ws)
		if want := c.left.side.NumTuples()+c.right.side.NumTuples() <= maxPooledTuples; ws.poolable() != want {
			t.Errorf("after %s: poolable %v, want %v", c.name, ws.poolable(), want)
		}
	}
}

// TestWorkspaceConcurrentMatchesSequential compares shared Prepareds from
// several goroutines through the pool and checks every result against a
// sequential run on a fresh workspace.
func TestWorkspaceConcurrentMatchesSequential(t *testing.T) {
	cases := wsCases(t)[1:5]
	want := make([]resultView, len(cases))
	for i, c := range cases {
		want[i] = viewOf(c.run(t, newWorkspace()))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(cases); k++ {
				i := (g + k) % len(cases)
				c := cases[i]
				opt := c.opt
				res, err := ComparePreparedContext(context.Background(), c.left, c.right, &opt)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !reflect.DeepEqual(viewOf(res), want[i]) {
					errs <- c.name + ": concurrent result differs from the sequential one"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConstSimMemoCallsOncePerPair runs the pinned Bike partial scenario
// (signature pin "bike-partial-levenshtein") with a counting
// ConstSimilarity: each ordered pair of distinct constants is scored once,
// and the score keeps its pinned bits.
func TestConstSimMemoCallsOncePerPair(t *testing.T) {
	base, err := datasets.Generate(datasets.Bike, 100, 21)
	if err != nil {
		t.Fatal(err)
	}
	sc := generator.Make(base, generator.Noise{CellPct: 0.05, NullReuse: 0.3, Seed: 21})
	for _, workers := range []int{1, 2} {
		calls := 0
		seen := map[[2]string]bool{}
		opt := &Options{Algorithm: AlgoSignature, Mode: ManyToMany, Partial: true, SigWorkers: workers,
			ConstSimilarity: func(a, b string) float64 {
				calls++
				seen[[2]string{a, b}] = true
				return Levenshtein(a, b)
			}}
		for run := 0; run < 2; run++ {
			calls = 0
			clear(seen)
			res, err := Compare(sc.Source, sc.Target, opt)
			if err != nil {
				t.Fatal(err)
			}
			if calls == 0 || calls != len(seen) {
				t.Errorf("workers %d run %d: %d ConstSimilarity calls for %d distinct ordered pairs", workers, run, calls, len(seen))
			}
			if got := math.Float64bits(res.Score); got != 0x3fe1a7a7c52db15c {
				t.Errorf("workers %d run %d: score bits %#x, pinned 0x3fe1a7a7c52db15c", workers, run, got)
			}
		}
	}
}

// TestWorkspacePanicIsNotPooled stops partial compares with a
// ConstSimilarity that panics part way through scoring, recovers, and then
// compares through the pool again: every later result must equal a run on
// a fresh workspace, so a workspace left half updated by the panic is
// never handed out again.
func TestWorkspacePanicIsNotPooled(t *testing.T) {
	c := wsCases(t)[3]
	want := viewOf(c.run(t, newWorkspace()))
	for _, after := range []int{1, 50, 400, 2000} {
		calls := 0
		opt := c.opt
		opt.ConstSimilarity = func(a, b string) float64 {
			if calls++; calls == after {
				panic("similarity failed")
			}
			return Levenshtein(a, b)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("the similarity was called fewer than %d times", after)
				}
			}()
			ComparePreparedContext(context.Background(), c.left, c.right, &opt)
		}()
		opt = c.opt
		res, err := ComparePreparedContext(context.Background(), c.left, c.right, &opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := viewOf(res); !reflect.DeepEqual(got, want) {
			t.Errorf("after a panic at call %d: score bits %#x, after-signature bits %#x; fresh workspace %#x, %#x",
				after, got.ScoreBits, got.AfterSigBits, want.ScoreBits, want.AfterSigBits)
		}
	}
}
