package instcmp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// prepScenario is one shape of the prepared-equivalence suite. Each
// exercises a different path through comparePrepared: the direct fast path,
// the null-rename re-prepare, the schema-align re-prepare, multi-relation
// environments, and the partial signature variant.
type prepScenario struct {
	name  string
	build func() (*Instance, *Instance)
	opt   Options
}

func prepScenarios() []prepScenario {
	return []prepScenario{
		{
			// Small ground instances with overlapping rows: exact search,
			// fully injective.
			name: "ground-exact-1to1",
			build: func() (*Instance, *Instance) {
				l, r := NewInstance(), NewInstance()
				for _, in := range []*Instance{l, r} {
					in.AddRelation("R", "A", "B")
				}
				for i := 0; i < 6; i++ {
					l.Append("R", Const(fmt.Sprintf("a%d", i)), Const(fmt.Sprintf("b%d", i)))
				}
				for i := 3; i < 9; i++ {
					r.Append("R", Const(fmt.Sprintf("a%d", i)), Const(fmt.Sprintf("b%d", i)))
				}
				return l, r
			},
			opt: Options{Algorithm: AlgoExact, Mode: OneToOne},
		},
		{
			// Both sides use the same null names: the prepared path must
			// rename the right side apart and re-prepare it, landing on the
			// same environment the one-shot normalization builds.
			name: "shared-null-names-functional",
			build: func() (*Instance, *Instance) {
				l, r := NewInstance(), NewInstance()
				for _, in := range []*Instance{l, r} {
					in.AddRelation("R", "A", "B")
				}
				l.Append("R", Const("x"), Null("N1"))
				l.Append("R", Null("N1"), Const("y"))
				l.Append("R", Null("N2"), Const("z"))
				r.Append("R", Const("x"), Null("N1"))
				r.Append("R", Null("N2"), Const("y"))
				r.Append("R", Null("N2"), Const("w"))
				return l, r
			},
			opt: Options{Algorithm: AlgoExact, Mode: Functional},
		},
		{
			// Different schemas: AlignSchemas pads attributes and relations,
			// and the prepared path re-prepares the aligned rebuilds.
			name: "align-schemas-signature",
			build: func() (*Instance, *Instance) {
				l, r := NewInstance(), NewInstance()
				l.AddRelation("R", "A", "B")
				l.AddRelation("S", "C")
				r.AddRelation("R", "A", "B", "C")
				l.Append("R", Const("x"), Const("y"))
				l.Append("S", Const("c1"))
				r.Append("R", Const("x"), Const("y"), Null("v1"))
				r.Append("R", Const("p"), Const("q"), Const("c1"))
				return l, r
			},
			opt: Options{Algorithm: AlgoSignature, AlignSchemas: true},
		},
		{
			// Multi-relation with disjoint null namespaces: the prepared
			// fast path end to end, exact search.
			name: "multirel-exact-ntom",
			build: func() (*Instance, *Instance) {
				l, r := NewInstance(), NewInstance()
				for _, in := range []*Instance{l, r} {
					in.AddRelation("Conf", "Name", "Year")
					in.AddRelation("Loc", "Name", "City")
				}
				l.Append("Conf", Const("VLDB"), Null("ly1"))
				l.Append("Conf", Const("EDBT"), Const("2024"))
				l.Append("Loc", Const("VLDB"), Null("lc1"))
				r.Append("Conf", Const("VLDB"), Const("2024"))
				r.Append("Conf", Const("EDBT"), Null("ry1"))
				r.Append("Loc", Const("VLDB"), Const("Guangzhou"))
				r.Append("Loc", Const("EDBT"), Null("rc1"))
				return l, r
			},
			opt: Options{Algorithm: AlgoExact, Mode: ManyToMany},
		},
		{
			// A larger seeded pair through the partial signature variant,
			// where the parallel pipeline has real work per phase.
			name: "large-partial-signature",
			build: func() (*Instance, *Instance) {
				rng := rand.New(rand.NewSource(7))
				build := func(side string) *Instance {
					in := NewInstance()
					in.AddRelation("T", "A", "B", "C")
					for i := 0; i < 60; i++ {
						row := make([]Value, 3)
						for c := range row {
							if rng.Float64() < 0.2 {
								row[c] = Null(fmt.Sprintf("%s%d", side, rng.Intn(30)))
							} else {
								row[c] = Const(fmt.Sprintf("v%d", rng.Intn(80)))
							}
						}
						in.Append("T", row...)
					}
					return in
				}
				return build("l"), build("r")
			},
			opt: Options{Algorithm: AlgoSignature, Partial: true, MinPartialSig: 1},
		},
	}
}

// assertSameResult fails unless the two results are bit-identical in score,
// explanation, and every deterministic stats counter.
func assertSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if math.Float64bits(a.Score) != math.Float64bits(b.Score) {
		t.Errorf("%s: score %v != %v", label, a.Score, b.Score)
	}
	if a.Algorithm != b.Algorithm || a.Exhaustive != b.Exhaustive || a.Stopped != b.Stopped {
		t.Errorf("%s: outcome (%v, %v, %q) != (%v, %v, %q)", label,
			a.Algorithm, a.Exhaustive, a.Stopped, b.Algorithm, b.Exhaustive, b.Stopped)
	}
	if !reflect.DeepEqual(a.Pairs, b.Pairs) {
		t.Errorf("%s: pairs differ:\n%v\n%v", label, a.Pairs, b.Pairs)
	}
	if !reflect.DeepEqual(a.LeftUnmatched, b.LeftUnmatched) || !reflect.DeepEqual(a.RightUnmatched, b.RightUnmatched) {
		t.Errorf("%s: unmatched differ", label)
	}
	if !reflect.DeepEqual(a.LeftValueMapping, b.LeftValueMapping) {
		t.Errorf("%s: left value mappings differ:\n%v\n%v", label, a.LeftValueMapping, b.LeftValueMapping)
	}
	if !reflect.DeepEqual(a.RightValueMapping, b.RightValueMapping) {
		t.Errorf("%s: right value mappings differ:\n%v\n%v", label, a.RightValueMapping, b.RightValueMapping)
	}
	as, bs := a.Stats, b.Stats
	if as.Nodes != bs.Nodes || as.Prunes != bs.Prunes || as.Improvements != bs.Improvements {
		t.Errorf("%s: search counters (%d,%d,%d) != (%d,%d,%d)", label,
			as.Nodes, as.Prunes, as.Improvements, bs.Nodes, bs.Prunes, bs.Improvements)
	}
	if as.PairAttempts != bs.PairAttempts || as.PairRejects != bs.PairRejects || as.ScoreEvals != bs.ScoreEvals {
		t.Errorf("%s: pair counters (%d,%d,%d) != (%d,%d,%d)", label,
			as.PairAttempts, as.PairRejects, as.ScoreEvals, bs.PairAttempts, bs.PairRejects, bs.ScoreEvals)
	}
	if math.Float64bits(as.WarmScore) != math.Float64bits(bs.WarmScore) {
		t.Errorf("%s: warm score %v != %v", label, as.WarmScore, bs.WarmScore)
	}
	if as.SigMatches != bs.SigMatches || as.CompatMatches != bs.CompatMatches ||
		math.Float64bits(as.ScoreAfterSig) != math.Float64bits(bs.ScoreAfterSig) ||
		as.SigWorkers != bs.SigWorkers || as.SigParallelBlocks != bs.SigParallelBlocks {
		t.Errorf("%s: signature stats differ: %+v vs %+v", label, as, bs)
	}
}

// TestPreparedEquivalentToOneShot is the prepared-equivalence suite: for
// every scenario shape and worker count, comparing prepared instances must
// be indistinguishable — scores, stats, explanations — from the one-shot
// path the regress goldens pin.
func TestPreparedEquivalentToOneShot(t *testing.T) {
	for _, sc := range prepScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			l, r := sc.build()
			lp, err := Prepare(l)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := Prepare(r)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				opt := sc.opt
				opt.ExactWorkers = workers
				opt.SigWorkers = workers
				oneShot, err := CompareContext(context.Background(), l, r, &opt)
				if err != nil {
					t.Fatalf("workers=%d: one-shot: %v", workers, err)
				}
				prepared, err := ComparePreparedContext(context.Background(), lp, rp, &opt)
				if err != nil {
					t.Fatalf("workers=%d: prepared: %v", workers, err)
				}
				assertSameResult(t, fmt.Sprintf("workers=%d", workers), oneShot, prepared)

				// Prepared state is reusable: a second run over the same
				// Prepared values must reproduce the result exactly.
				again, err := ComparePreparedContext(context.Background(), lp, rp, &opt)
				if err != nil {
					t.Fatalf("workers=%d: prepared again: %v", workers, err)
				}
				assertSameResult(t, fmt.Sprintf("workers=%d reuse", workers), prepared, again)
			}
		})
	}
}

// TestPrepareSnapshots pins the ownership contract: Prepare clones, so
// mutating the input afterwards does not change what the prepared instance
// compares as.
func TestPrepareSnapshots(t *testing.T) {
	l, r := NewInstance(), NewInstance()
	for _, in := range []*Instance{l, r} {
		in.AddRelation("R", "A")
	}
	l.Append("R", Const("x"))
	r.Append("R", Const("x"))
	lp, err := Prepare(l)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Prepare(r)
	if err != nil {
		t.Fatal(err)
	}
	before, err := ComparePrepared(lp, rp, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Degrade the live inputs; the snapshots must not notice.
	l.Append("R", Const("noise1"))
	r.Append("R", Const("noise2"))
	after, err := ComparePrepared(lp, rp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(before.Score) != math.Float64bits(after.Score) {
		t.Errorf("mutating inputs changed a prepared comparison: %v -> %v", before.Score, after.Score)
	}
	if before.Score != 1 {
		t.Errorf("identical singleton instances should score 1, got %v", before.Score)
	}
}

// TestConcurrentComparesShareSamePrepared runs many comparisons against the
// same Prepared values from concurrent goroutines (the registry serving
// pattern); under -race this pins that comparing never mutates prepared
// state, and every goroutine must see bit-identical scores.
func TestConcurrentComparesShareSamePrepared(t *testing.T) {
	scenarios := prepScenarios()
	sc := scenarios[4] // the large signature scenario: real shared state
	l, r := sc.build()
	lp, err := Prepare(l)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Prepare(r)
	if err != nil {
		t.Fatal(err)
	}
	opt := sc.opt
	want, err := ComparePrepared(lp, rp, &opt)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	scores := make([]float64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := ComparePrepared(lp, rp, &opt)
				if err != nil {
					errs[g] = err
					return
				}
				scores[g] = res.Score
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if math.Float64bits(scores[g]) != math.Float64bits(want.Score) {
			t.Errorf("goroutine %d: score %v != %v", g, scores[g], want.Score)
		}
	}
}
