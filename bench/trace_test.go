package main

import (
	"testing"
	"time"
)

// TestSelfTimes checks the self-time arithmetic on a synthetic span tree:
// a root with two overlapping children (parallel work counted once), one of
// which has a child of its own, and a child that outlives its parent.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "compare", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Name: "compare", Start: 30 * ms, End: 70 * ms},
		{ID: 4, Parent: 2, Name: "prepare", Start: 20 * ms, End: 30 * ms},
		{ID: 5, Name: "op", Start: 200 * ms, End: 210 * ms},
		{ID: 6, Parent: 5, Name: "prepare", Start: 205 * ms, End: 220 * ms},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{
		// 100 minus the union [10, 70) of its children, plus 10 minus
		// the clipped child [205, 210).
		"op":      40*ms + 5*ms,
		"compare": (40*ms - 10*ms) + 40*ms,
		"prepare": 10*ms + 15*ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d names, want %d: %v", len(got), len(want), got)
	}
}

// TestRecorderNil checks that a nil recorder records nothing.
func TestRecorderNil(t *testing.T) {
	var r *Recorder
	id := r.Start("op", 0, 1)
	r.End(id, nil)
	r.EndProbe(id, nil)
	if id != 0 || r.Spans() != nil {
		t.Errorf("nil recorder returned id %d, spans %v", id, r.Spans())
	}
}

// TestQuartiles pins the exclusive-method quartiles Python's
// statistics.quantiles(xs, n=4) returns.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3}, 3, 3, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
