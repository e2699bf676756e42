package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer of the program, recorded by benchmark
// code around a public entry point. Spans of one benchmark operation share
// Op; Parent is the ID of the span that caused this one (0 for an
// operation's root span).
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	// Probe marks a call made only to measure a layer that the operation
	// also runs inside another call (a standalone MapSchemas beside a
	// compare that discovers the mapping itself). Its time is excluded when
	// the traced throughput is set against the untraced one.
	Probe bool `json:"probe,omitempty"`
}

// Duration is the span's wall-clock length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the benchmark ends. A nil *Recorder
// records nothing, so untraced runs pass nil and pay one nil check per call.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewRecorder returns an empty recorder whose span times count from now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Start(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans)
}

// End closes the span with the given attributes.
func (r *Recorder) End(id int, attrs map[string]float64) { r.end(id, attrs, false) }

// EndProbe closes a probe span (see Span.Probe).
func (r *Recorder) EndProbe(id int, attrs map[string]float64) { r.end(id, attrs, true) }

func (r *Recorder) end(id int, attrs map[string]float64, probe bool) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End, s.Attrs, s.Probe = now, attrs, probe
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span name, the total self time: each span's
// duration minus the part of its interval covered by its children. Children
// that run in parallel and overlap are counted once.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += s.Duration() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of the parent's interval the union of the
// children's intervals covers.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	return total + curHi - curLo
}

// probeTime sums the duration of probe spans.
func probeTime(spans []Span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Probe {
			d += s.Duration()
		}
	}
	return d
}

// spansOf returns the spans with the given name.
func spansOf(spans []Span, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// spanFile is the on-disk shape of a traced run: every span plus each
// layer's self time in milliseconds.
type spanFile struct {
	Workload string             `json:"workload"`
	SelfMS   map[string]float64 `json:"self_ms"`
	Spans    []Span             `json:"spans"`
}

// writeSpans writes the traced run's spans to path.
func writeSpans(path, workload string, spans []Span) error {
	f := spanFile{Workload: workload, SelfMS: map[string]float64{}, Spans: spans}
	for name, d := range SelfTimes(spans) {
		f.SelfMS[name] = ms(d)
	}
	buf, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
