package instcmp

import (
	"strings"
	"testing"

	"instcmp/internal/datasets"
	"instcmp/internal/generator"
)

// TestCompareRejectsInvalidOptions pins the shared Options validation gate:
// every invalid field is rejected up front, with the same error, by both
// the one-shot and the prepared comparison paths (they share
// Options.validate, and this test keeps it that way).
func TestCompareRejectsInvalidOptions(t *testing.T) {
	l, r := NewInstance(), NewInstance()
	l.AddRelation("R", "A")
	r.AddRelation("R", "A")
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

	cases := []struct {
		name    string
		opt     Options
		wantSub string
	}{
		{"negative lambda", Options{Lambda: -0.1}, "Lambda"},
		{"lambda one", Options{Lambda: 1}, "Lambda"},
		{"lambda above one", Options{Lambda: 1.5}, "Lambda"},
		{"negative min partial sig", Options{MinPartialSig: -1}, "MinPartialSig"},
		{"negative exact workers", Options{ExactWorkers: -1}, "ExactWorkers"},
		{"negative sig workers", Options{SigWorkers: -2}, "SigWorkers"},
	}
	paths := []struct {
		name string
		run  func(opt *Options) error
	}{
		{"Compare", func(opt *Options) error {
			_, err := Compare(l, r, opt)
			return err
		}},
		{"ComparePrepared", func(opt *Options) error {
			_, err := ComparePrepared(lp, rp, opt)
			return err
		}},
	}
	for _, path := range paths {
		for _, tc := range cases {
			err := path.run(&tc.opt)
			if err == nil {
				t.Errorf("%s/%s: accepted invalid options %+v", path.name, tc.name, tc.opt)
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("%s/%s: error %q does not mention %s", path.name, tc.name, err, tc.wantSub)
			}
		}
	}

	// Both paths report the same error text for the same invalid options.
	for _, tc := range cases {
		e1 := paths[0].run(&tc.opt)
		e2 := paths[1].run(&tc.opt)
		if e1 == nil || e2 == nil || e1.Error() != e2.Error() {
			t.Errorf("%s: paths disagree: Compare=%v ComparePrepared=%v", tc.name, e1, e2)
		}
	}

	// The boundary values stay valid: λ = 0 (meaning DefaultLambda) and
	// explicit zero λ, plus λ just under 1 and explicit worker counts.
	for _, opt := range []Options{{}, {ExplicitZeroLambda: true}, {Lambda: 0.999}, {ExactWorkers: 2, SigWorkers: 2}} {
		for _, path := range paths {
			if err := path.run(&opt); err != nil {
				t.Errorf("%s rejected valid options %+v: %v", path.name, opt, err)
			}
		}
	}
}

// TestExactWarmStartHonorsSigWorkers: the exact search's warm start is a
// signature run, so Options.SigWorkers sets its pipeline width too. The
// n-to-m search runs it before the walk. Doct 600 is above the pipeline's
// size gate, so two workers fan out and one runs every phase inline,
// whatever GOMAXPROCS is.
func TestExactWarmStartHonorsSigWorkers(t *testing.T) {
	base, err := datasets.Generate(datasets.Doct, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := generator.Make(base, generator.Noise{CellPct: 0.05, NullReuse: 0.3, Seed: 101})
	for _, tc := range []struct {
		workers int
		fansOut bool
	}{{1, false}, {2, true}} {
		res, err := Compare(sc.Source, sc.Target, &Options{
			Mode: ManyToMany, Algorithm: AlgoExact, SigWorkers: tc.workers, ExactMaxNodes: 5000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.WarmScore < 0 {
			t.Fatalf("SigWorkers=%d: warm start did not run", tc.workers)
		}
		if res.Stats.SigWorkers != tc.workers {
			t.Errorf("SigWorkers=%d: warm start ran %d pipeline workers", tc.workers, res.Stats.SigWorkers)
		}
		if got := res.Stats.SigParallelBlocks > 0; got != tc.fansOut {
			t.Errorf("SigWorkers=%d: %d fanned-out blocks", tc.workers, res.Stats.SigParallelBlocks)
		}
	}
}
