package lake

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"instcmp"
)

// smallInstance builds a single-relation, single-tuple instance R(A, B) with
// the given values.
func smallInstance(a, b instcmp.Value) *instcmp.Instance {
	in := instcmp.NewInstance()
	in.AddRelation("R", "A", "B")
	in.Append("R", a, b)
	return in
}

// TestRankExplicitZeroLambda pins that Options.ExplicitZeroLambda reaches the
// comparison: the example's null matched against a constant earns λ per cell,
// so the candidate scores (1+λ)/2 — 0.75 at the default λ = 0.5 and exactly
// 0.5 at λ = 0, which Options.Lambda = 0 alone cannot request.
func TestRankExplicitZeroLambda(t *testing.T) {
	example := smallInstance(instcmp.Const("x"), instcmp.Null("N1"))
	cands := []Candidate{{Name: "c", Instance: smallInstance(instcmp.Const("x"), instcmp.Const("y"))}}

	def, err := Rank(context.Background(), example, cands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(def[0].Score-0.75) > 1e-9 {
		t.Errorf("default-λ score = %v, want 0.75", def[0].Score)
	}

	zero, err := Rank(context.Background(), example, cands, Options{ExplicitZeroLambda: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(zero[0].Score-0.5) > 1e-9 {
		t.Errorf("λ=0 score = %v, want 0.5", zero[0].Score)
	}
}

// wideInstance builds a single-relation instance whose relation has the given
// arity. Arities above 64 make match.NewEnv fail with an error that names the
// arity, which the error-ordering test below uses to tell candidates apart.
func wideInstance(arity int) *instcmp.Instance {
	attrs := make([]string, arity)
	row := make([]instcmp.Value, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
		row[i] = instcmp.Const(fmt.Sprintf("v%d", i))
	}
	out := instcmp.NewInstance()
	out.AddRelation("R", attrs...)
	out.Append("R", row...)
	return out
}

// TestRankReturnsFirstErrorByCandidateOrder pins the documented fail-fast
// guarantee: when several candidates fail, Rank returns the error of the
// lowest-index failing candidate at every worker count, including more
// workers than candidates. The two failing candidates have distinct arities
// (65 vs 66), so their ErrTooManyAttributes messages are distinguishable
// even though alignName erases relation-name differences.
func TestRankReturnsFirstErrorByCandidateOrder(t *testing.T) {
	example := wideInstance(2)
	cands := []Candidate{
		{Name: "ok-0", Instance: wideInstance(2)},
		{Name: "bad-65", Instance: wideInstance(65)},
		{Name: "ok-2", Instance: wideInstance(2)},
		{Name: "bad-66", Instance: wideInstance(66)},
		{Name: "ok-4", Instance: wideInstance(2)},
	}
	for _, workers := range []int{1, 2, 4, 16} {
		// The concurrent path schedules candidates nondeterministically;
		// repeat to give a wrong ordering a chance to surface.
		for iter := 0; iter < 20; iter++ {
			_, err := Rank(context.Background(), example, cands, Options{Workers: workers})
			if err == nil {
				t.Fatalf("workers=%d: expected an error", workers)
			}
			if !strings.Contains(err.Error(), "has 65") {
				t.Fatalf("workers=%d iter=%d: got error %q, want the index-1 candidate's (arity 65)", workers, iter, err)
			}
		}
	}
}

// TestRankPerCandidateTimeoutDegrades: a candidate that exceeds its own
// comparison budget is degraded — TimedOut, score 0, ranked with the pruned
// candidates — instead of failing the ranking.
func TestRankPerCandidateTimeoutDegrades(t *testing.T) {
	example, cands := buildLake(t)
	// 1ns: every per-candidate context is already expired when the
	// comparison starts, so every unpruned candidate degrades.
	res, err := Rank(context.Background(), example, cands, Options{PerCandidateTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(cands) {
		t.Fatalf("results = %d, want %d", len(res), len(cands))
	}
	for _, r := range res {
		if !r.TimedOut {
			t.Errorf("candidate %s not marked TimedOut", r.Name)
		}
		if r.Score != 0 {
			t.Errorf("timed-out candidate %s has score %v", r.Name, r.Score)
		}
		if r.Stats == nil {
			t.Errorf("timed-out candidate %s lost its stats", r.Name)
		}
		if r.Overlap == 0 {
			t.Errorf("timed-out candidate %s lost its prefilter overlap", r.Name)
		}
	}
}

// TestRankPerCandidateTimeoutGenerous: a budget no candidate hits must leave
// the ranking identical to an unbudgeted run.
func TestRankPerCandidateTimeoutGenerous(t *testing.T) {
	example, cands := buildLake(t)
	plain, err := Rank(context.Background(), example, cands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := Rank(context.Background(), example, cands, Options{PerCandidateTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		a, b := plain[i], budgeted[i]
		a.Stats, b.Stats = nil, nil
		if a != b {
			t.Errorf("rank %d differs under a generous budget: %+v vs %+v", i, a, b)
		}
	}
}

// TestRankContextCanceled: cancelling the overall context fails the ranking
// with ctx.Err(), unlike a per-candidate timeout.
func TestRankContextCanceled(t *testing.T) {
	example, cands := buildLake(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 4, 16} {
		_, err := Rank(ctx, example, cands, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}
