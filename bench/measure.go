package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Set-up is repeated at least minSetupReps times and until setupBudget has
// been spent on it (at most maxSetupReps times); setup_s is the median, so
// one slow repetition does not move it, and cheap set-ups get more
// repetitions. Single lake-rank set-ups vary by ±20% from one repetition to
// the next on a shared 2-CPU VM; with a 1 s budget (5 repetitions) the median
// of ten runs moved by 22% between two sets, so the budget is 3 s.
const (
	minSetupReps = 5
	maxSetupReps = 200
	setupBudget  = 3 * time.Second
)

// usage is a snapshot of the runtime's cumulative counters.
type usage struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var usageSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(usageSamples))
	for i, name := range usageSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return usage{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// allocSince returns the bytes allocated since the snapshot.
func allocSince(u usage) float64 { return float64(readUsage().allocBytes - u.allocBytes) }

// phase is the record of one timed phase of a workload.
type phase struct {
	lats    []time.Duration // one per completed operation
	elapsed time.Duration
	ops     int
	warm    int // untimed warm-up operations before the phase
	before  usage
	after   usage
	spans   []Span
}

// begin starts the phase from a collected heap, as testing.B does, so that
// garbage left by set-up or an earlier phase is not charged to it.
func (p *phase) begin() {
	runtime.GC()
	p.before = readUsage()
}

func (p *phase) end(elapsed time.Duration) {
	p.after = readUsage()
	p.elapsed = elapsed
	p.ops = len(p.lats)
}

func (p *phase) throughput() float64 { return float64(p.ops) / p.elapsed.Seconds() }

func (p *phase) allocMBPerOp() float64 {
	return float64(p.after.allocBytes-p.before.allocBytes) / float64(p.ops) / 1e6
}

func (p *phase) gcCyclesPerOp() float64 {
	return float64(p.after.gcCycles-p.before.gcCycles) / float64(p.ops)
}

func (p *phase) gcCPUFrac() float64 {
	total := p.after.totalCPU - p.before.totalCPU
	if total <= 0 {
		return 0
	}
	return (p.after.gcCPU - p.before.gcCPU) / total
}

// closedLoop runs one caller that issues op(i) for i = 0, 1, ..., mix-1 in
// rotation: one untimed warm-up rotation, then whole rotations until d has
// elapsed. op reports whether the operation's output was correct.
func closedLoop(d time.Duration, mix int, rec *Recorder, op func(i, opID int, rec *Recorder) bool) (*phase, int) {
	failed := 0
	for i := 0; i < mix; i++ {
		if !op(i, 0, nil) {
			failed++
		}
	}
	p := &phase{warm: mix}
	p.begin()
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < mix; i++ {
			t0 := time.Now()
			if !op(i, len(p.lats)+1, rec) {
				failed++
			}
			p.lats = append(p.lats, time.Since(t0))
		}
	}
	p.end(time.Since(start))
	p.spans = rec.Spans()
	return p, failed
}

// percentile returns the nearest-rank q-quantile of the samples.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// medianSetup repeats f and returns the median of the time f reports for
// its set-up calls, and the number of repetitions. The smoke test's tiny
// runs stop at minSetupReps.
func medianSetup(cfg config, f func() (time.Duration, error)) (float64, int, error) {
	budget := setupBudget
	if cfg.tiny {
		budget = 0
	}
	var ds []time.Duration
	var spent time.Duration
	for len(ds) < minSetupReps || (spent < budget && len(ds) < maxSetupReps) {
		// Each repetition starts from a collected heap, so that when the
		// collector runs does not decide its time.
		runtime.GC()
		d, err := f()
		if err != nil {
			return 0, 0, err
		}
		ds = append(ds, d)
		spent += d
	}
	return percentile(ds, 0.5).Seconds(), len(ds), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean returns the average of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
