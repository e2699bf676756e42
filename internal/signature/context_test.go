package signature

import (
	"context"
	"testing"
	"time"

	"instcmp/internal/datasets"
	"instcmp/internal/generator"
	"instcmp/internal/match"
	"instcmp/internal/model"
)

// TestRunContextCanceled: a canceled context stops the greedy rounds and the
// completion step, returning the (possibly empty) match grown so far with
// Stopped = StoppedCanceled — still a valid, consistently scored match.
func TestRunContextCanceled(t *testing.T) {
	rows := make([][]model.Value, 40)
	rows2 := make([][]model.Value, 40)
	for i := range rows {
		rows[i] = []model.Value{c(model.Constf("v%d", i).Raw()), n(model.Nullf("L%d", i).Raw())}
		rows2[i] = []model.Value{c(model.Constf("v%d", i).Raw()), n(model.Nullf("R%d", i).Raw())}
	}
	l, r := build(rows), build(rows2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, l, r, match.OneToOne, Options{Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StoppedCanceled {
		t.Errorf("Stopped = %q, want %q", res.Stopped, StoppedCanceled)
	}
	// The partial match must still be internally consistent: every reported
	// pair is in the environment, and the score matches its state.
	if got := res.Env.NumPairs(); got != res.Stats.SigMatches+res.Stats.CompatMatches {
		t.Errorf("pair accounting inconsistent: %d pairs vs %d+%d",
			got, res.Stats.SigMatches, res.Stats.CompatMatches)
	}
	if res.Score < 0 || res.Score > 1 {
		t.Errorf("canceled score out of range: %v", res.Score)
	}

	// The same comparison uncanceled completes with a perfect score and no
	// Stopped reason.
	full, err := Run(context.Background(), l, r, match.OneToOne, Options{Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stopped != "" {
		t.Errorf("uncanceled run reported Stopped = %q", full.Stopped)
	}
	if full.Score <= res.Score && res.Score != full.Score {
		t.Errorf("full score %v not above canceled %v", full.Score, res.Score)
	}
	if full.Score != 1 {
		t.Errorf("full score = %v, want 1 (null-renamed copy)", full.Score)
	}
}

// TestPartialWideDeadline: partial mode indexes every subset of a row's
// constant attributes, 2^19 of them on the 19-attribute Git relation, so the
// signature-map build must poll for cancellation between subsets, not only
// between rows. A run over 20 rows answers its deadline promptly.
func TestPartialWideDeadline(t *testing.T) {
	base, err := datasets.Generate(datasets.Git, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	gen := generator.Make(base, generator.Noise{CellPct: 0.05, NullReuse: 0.3, Seed: 42})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, gen.Source, gen.Target, match.OneToOne, Options{Lambda: lambda, Partial: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("run with a 100ms deadline returned after %v", elapsed)
	}
	if res.Stopped != StoppedCanceled {
		t.Errorf("Stopped = %q, want %q", res.Stopped, StoppedCanceled)
	}
}
