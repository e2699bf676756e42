// Package exact implements the paper's exact instance-comparison algorithm
// (Sec. 6.1, Alg. 1): enumerate every tuple mapping assembled from
// compatible tuple pairs (Alg. 2), keep the consistent ones, and return the
// instance match with the maximum Def. 5.3 score.
//
// The enumeration is one depth-first branch-and-bound walk over levels of
// the flat compatible-pair list: each level commits one of its pairs or
// none. Only the level layout depends on the mode. In the functional
// (left-injective) modes a level is one left tuple's candidate partners;
// in the general mode a level is a single pair, included or excluded. A
// global unifier detects value-mapping inconsistencies between pairs (the
// paper's step 2) and is rolled back on backtracking. The
// instance-comparison problem is NP-hard (Thm. 5.11), so the search
// carries a node/time budget; results indicate whether the search space
// was exhausted.
//
// Two engine-level accelerations sit on top of the plain DFS, neither of
// which changes the returned score (see DESIGN.md §9 for the argument):
//
//   - Warm start: the signature algorithm (Sec. 6.2) runs first on the same
//     environment and its match — re-inserted in the search's canonical
//     order so its score is bit-identical to the corresponding leaf's —
//     seeds the incumbent, so the suffix bounds prune from node 1 instead
//     of only after the first full descent.
//   - Parallel search: the same walk, stopped at a prefix depth, enumerates
//     subtree tasks (the committed pair indices of each prefix); workers
//     that own cloned environments replay a task and walk on from there.
//     The incumbent is shared through an atomic bits-of-float64 CAS and
//     task results are reduced in canonical task order, so the worker
//     count never changes the returned score.
//
// The search runs on the comparison's integer-coded rows: candidate
// generation probes compat.CodedIndex, the static per-pair bounds read
// ValueIDs and precomputed ground masks, and the suffix bounds accumulate
// in a flat array indexed by level.
package exact

import (
	"context"
	"expvar"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"instcmp/internal/compat"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/score"
	"instcmp/internal/signature"
)

// Result.Stopped reasons. A stopped search still returns the best incumbent
// found so far (at minimum the warm start's match, when enabled).
const (
	// StoppedTimeout: the Options.Timeout deadline passed.
	StoppedTimeout = "timeout"
	// StoppedNodeBudget: the Options.MaxNodes budget was exhausted.
	StoppedNodeBudget = "node-budget"
	// StoppedCanceled: the context passed to Run or RunEnv was canceled.
	StoppedCanceled = "canceled"
)

// Internal trip codes backing Result.Stopped; stopNone means the search ran
// to exhaustion.
const (
	stopNone int32 = iota
	stopTimeout
	stopNodeBudget
	stopCanceled
)

func stoppedString(code int32) string {
	switch code {
	case stopTimeout:
		return StoppedTimeout
	case stopNodeBudget:
		return StoppedNodeBudget
	case stopCanceled:
		return StoppedCanceled
	default:
		return ""
	}
}

// vars exports cumulative search counters for long-running processes
// (expvar key "instcmp.exact"): runs, nodes, prunes, improvements,
// exhaustive, stopped_timeout, stopped_node_budget, stopped_canceled.
var vars = expvar.NewMap("instcmp.exact")

// Options configures an exact run.
type Options struct {
	// Lambda is the null-to-constant penalty of Def. 5.5.
	Lambda float64
	// MaxNodes bounds the number of search-tree nodes (0 = no bound).
	// With Workers = 1 it is exact: the one searcher counts every node and
	// stops at the first node past the bound. Under parallel execution it
	// is enforced within one flush batch per worker (workers publish node
	// counts every nodeFlushBatch nodes); task enumeration counts as solo.
	MaxNodes int64
	// Timeout bounds wall-clock time (0 = no bound). The warm-start
	// signature run is polynomial and not counted against it.
	Timeout time.Duration
	// Workers is the number of parallel search workers: 0 = GOMAXPROCS,
	// 1 = single-threaded. The returned score is identical for every
	// worker count; only wall-clock time (and, under a budget, how much
	// of the space gets explored) changes.
	Workers int
	// NoWarmStart disables seeding the incumbent with the signature
	// algorithm's match (ablation switch; the warm start never changes
	// the returned score, only how fast the search converges).
	NoWarmStart bool

	// splitDepth overrides the level at which a parallel search cuts the
	// tree into subtree tasks (0 = automatic, see autoSplitDepth). Only
	// the package's tests set it, to cover the extreme depths.
	splitDepth int
}

// Result is the outcome of an exact search.
type Result struct {
	Env   *match.Env
	Score float64
	// Pairs is the best tuple mapping found.
	Pairs []match.Pair
	// Exhaustive reports whether the whole search space was explored; if
	// false the score is a lower bound on the true similarity.
	Exhaustive bool
	// Nodes is the number of search-tree nodes visited, summed over all
	// workers (task-prefix enumeration included).
	Nodes int64
	// Prunes counts subtrees cut by the optimistic suffix bounds, summed
	// over all workers.
	Prunes int64
	// Improvements counts incumbent improvements recorded by searchers
	// (per task under parallel execution, so the count depends on worker
	// scheduling; the score never does).
	Improvements int64
	// WarmScore is the warm-start incumbent the search began from, -1
	// when the warm start was disabled or not applicable. Warm-started
	// budget-capped runs therefore never report less than WarmScore.
	WarmScore float64
	// SigStats is the warm-start signature run's phase breakdown, nil
	// when the warm start was disabled or not applicable.
	SigStats *signature.Stats
	// Stopped reports why a non-exhaustive search stopped: one of
	// StoppedTimeout, StoppedNodeBudget, StoppedCanceled. Empty when
	// Exhaustive.
	Stopped string
	// EnvStats aggregates the pair-attempt counters of the root
	// environment and every worker clone.
	EnvStats match.EnvStats
}

// Run executes the exact algorithm. The returned environment holds the best
// match re-applied, so callers can extract value mappings and explanations.
// Cancellation is polled in the node loop alongside the deadline — every
// soloPollInterval nodes single-threaded, every nodeFlushBatch nodes per
// parallel worker — so a canceled search returns promptly with the best
// incumbent found so far and Result.Stopped = StoppedCanceled. The context
// also bounds the warm-start signature run.
func Run(ctx context.Context, left, right *model.Instance, mode match.Mode, opt Options) (*Result, error) {
	env, err := match.NewEnv(left, right, mode)
	if err != nil {
		return nil, err
	}
	return RunEnv(ctx, env, opt)
}

// RunEnv executes the exact search on a caller-built environment whose
// tuple mapping must be empty — the one-shot Run's or the one a prepared
// comparison assembled with match.NewEnvPrepared. The returned Result
// aliases env.
func RunEnv(ctx context.Context, env *match.Env, opt Options) (*Result, error) {
	if env.NumPairs() != 0 {
		return nil, fmt.Errorf("exact: RunEnv requires an empty tuple mapping, got %d pairs", env.NumPairs())
	}
	p := newProblem(ctx, env, opt.Lambda)
	sh := &shared{maxN: opt.MaxNodes, ctx: ctx}
	sh.best.Store(math.Float64bits(-1))
	if opt.Timeout > 0 {
		//instlint:allow nondet -- wall-clock deadline only triggers anytime degradation (Stopped=timeout with the best-so-far score); it never feeds a score
		sh.deadline = time.Now().Add(opt.Timeout)
	}

	best, bestPairs := -1.0, []match.Pair(nil)
	warmScore := -1.0
	var sigStats *signature.Stats
	// The ctx.Err() guard also protects canonicalize: a canceled
	// newProblem returns a truncated candidate structure that must not be
	// indexed by a warm-start match.
	if !opt.NoWarmStart && ctx.Err() == nil {
		if wp, ws, st, ok := warmStart(ctx, env, p); ok {
			best, bestPairs, warmScore = ws, wp, ws
			sigStats = st
			sh.offer(ws)
		}
	}
	// A context canceled before (or during) the warm start skips the
	// search entirely; the result is the incumbent found so far.
	if ctx.Err() != nil {
		sh.trip(stopCanceled)
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case sh.stop.Load():
		// Pre-tripped: nothing to search.
	case workers == 1:
		s := &searcher{p: p, sh: sh, env: env, solo: true, best: best, cut: p.levels()}
		s.walk(0)
		s.publish()
		if s.best > best {
			best, bestPairs = s.best, s.bestPairs
		}
	default:
		for _, tr := range searchParallel(env, p, sh, best, workers, opt.splitDepth) {
			if tr.score > best {
				best, bestPairs = tr.score, tr.pairs
			}
		}
	}

	// Re-apply the best mapping so the returned Env reflects it.
	env.Undo(match.Mark{})
	reason := sh.reason.Load()
	res := &Result{
		Env:          env,
		Exhaustive:   reason == stopNone,
		Nodes:        sh.nodes.Load(),
		Prunes:       sh.prunes.Load(),
		Improvements: sh.improved.Load(),
		WarmScore:    warmScore,
		SigStats:     sigStats,
		Stopped:      stoppedString(reason),
	}
	if !env.Replay(bestPairs) {
		panic("exact: best mapping no longer applies")
	}
	res.Pairs = env.Pairs()
	res.Score = score.Match(env, opt.Lambda)
	res.EnvStats = env.Stats
	res.EnvStats.Add(sh.cloneStats)
	publishRun(res)
	return res, nil
}

// publishRun feeds the run's aggregate counters into the package expvars.
func publishRun(res *Result) {
	vars.Add("runs", 1)
	vars.Add("nodes", res.Nodes)
	vars.Add("prunes", res.Prunes)
	vars.Add("improvements", res.Improvements)
	if res.Exhaustive {
		vars.Add("exhaustive", 1)
	} else {
		vars.Add("stopped_"+statKey(res.Stopped), 1)
	}
}

// statKey converts a Stopped reason to an expvar key fragment.
func statKey(reason string) string {
	if reason == StoppedNodeBudget {
		return "node_budget"
	}
	return reason
}

// problem is the immutable description of one search: the candidate
// structures and bounds, computed once and shared read-only by every
// worker.
type problem struct {
	lambda float64
	// pairs is the flat compatible pair list in left-tuple order, each
	// left tuple's candidates sorted by affinity; pairOpt[k] is the
	// optimistic score of pairs[k].
	pairs   []match.Pair
	pairOpt []float64
	// start cuts pairs into the search levels: level j commits one of
	// pairs[start[j]:start[j+1]] or none of them.
	start []int
	// suffix[j] is an upper bound on the numerator contribution still
	// obtainable from levels j and deeper.
	suffix []float64
	denom  float64
}

// levels returns the depth of the full search tree.
func (p *problem) levels() int { return len(p.start) - 1 }

// shared is the cross-worker mutable state: the incumbent, the aggregated
// node count, and the budget trip-wire.
type shared struct {
	// best holds math.Float64bits of the best score found so far; workers
	// raise it with a CAS loop (offer) and read it for pruning. It only
	// ever increases, and every stored value is some leaf's score (or the
	// warm start's), so pruning against it never cuts a strictly better
	// leaf — which is what makes the returned score independent of worker
	// count and timing.
	best  atomic.Uint64
	nodes atomic.Int64
	// prunes and improved aggregate the searchers' local stat counters
	// (published alongside nodes; they never influence the search).
	prunes   atomic.Int64
	improved atomic.Int64
	// stop trips once the node or time budget is exceeded or the context
	// is canceled, and makes every worker unwind; a tripped search
	// reports Exhaustive = false. reason records the first trip's cause.
	stop     atomic.Bool
	reason   atomic.Int32
	maxN     int64
	deadline time.Time
	// ctx carries caller cancellation.
	ctx context.Context

	// cloneStats aggregates the env counters of finished worker clones.
	mu         sync.Mutex
	cloneStats match.EnvStats
}

// addCloneStats merges a worker clone's env counters into the run total.
func (sh *shared) addCloneStats(st match.EnvStats) {
	sh.mu.Lock()
	sh.cloneStats.Add(st)
	sh.mu.Unlock()
}

// trip stops the whole search, recording the first cause to win.
func (sh *shared) trip(code int32) {
	sh.reason.CompareAndSwap(stopNone, code)
	sh.stop.Store(true)
}

func (sh *shared) incumbent() float64 { return math.Float64frombits(sh.best.Load()) }

// offer raises the shared incumbent to sc if it improves it.
func (sh *shared) offer(sc float64) {
	for {
		old := sh.best.Load()
		if sc <= math.Float64frombits(old) {
			return
		}
		if sh.best.CompareAndSwap(old, math.Float64bits(sc)) {
			return
		}
	}
}

// searcher is one search executor: the solo searcher of a single-threaded
// run, the task enumerator of a parallel one, or one parallel worker. It
// owns an environment; everything else is shared.
type searcher struct {
	p   *problem
	sh  *shared
	env *match.Env
	// cut is the level at which walk stops descending: p.levels() for a
	// search, the split depth for the task enumerator.
	cut int
	// emit, set only on the task enumerator, receives the committed pair
	// indices of every prefix that reaches the cut; other searchers
	// evaluate the leaf there instead.
	emit func(path []int)
	// path holds the indices into p.pairs of the pairs walk committed on
	// the way to the current node.
	path []int
	// committedUB is a running upper bound on the numerator contribution
	// of the pairs currently in the environment (2 x optimistic score
	// each), maintained incrementally.
	committedUB float64
	// solo marks the single-threaded searcher: budget checks skip the
	// atomics and count exactly per node, preserving the sequential
	// engine's behavior bit for bit.
	solo bool
	// nodes counts visited nodes: the running total when solo, the count
	// since the last flush for a parallel worker.
	nodes int64
	// prunes and improved are searcher-local stat counters, published to
	// the shared totals by publish().
	prunes   int64
	improved int64
	stopped  bool
	// best/bestPairs track the best leaf seen by this searcher (per task
	// for parallel workers, which reset them in runTask).
	best      float64
	bestPairs []match.Pair
}

// nodeFlushBatch is how many nodes a parallel worker accumulates before
// publishing them to the shared counter and re-checking the budget; the
// node budget is therefore enforced within workers x nodeFlushBatch nodes.
const nodeFlushBatch = 64

// soloPollInterval is how many nodes the single-threaded searcher visits
// between deadline/cancellation polls: the poll interval that bounds how
// far a solo search can overshoot its Timeout or outlive its context.
const soloPollInterval = 1024

// budgetExceeded checks the node/time budget and the context; once it
// trips, it stays tripped (for every worker) so the whole search unwinds
// immediately and the result is marked inexact.
func (s *searcher) budgetExceeded() bool {
	if s.stopped {
		return true
	}
	s.nodes++
	if s.solo {
		if s.sh.maxN > 0 && s.nodes > s.sh.maxN {
			s.trip(stopNodeBudget)
			return true
		}
		if s.nodes%soloPollInterval == 0 {
			//instlint:allow nondet -- deadline poll: trips the anytime timeout stop, never a score
			if !s.sh.deadline.IsZero() && time.Now().After(s.sh.deadline) {
				s.trip(stopTimeout)
				return true
			}
			if s.sh.ctx.Err() != nil {
				s.trip(stopCanceled)
				return true
			}
		}
		return false
	}
	if s.sh.stop.Load() {
		s.stopped = true
		return true
	}
	if s.nodes >= nodeFlushBatch {
		return s.flush()
	}
	return false
}

// flush publishes the worker's node count and re-checks the budget and the
// context.
func (s *searcher) flush() bool {
	n := s.sh.nodes.Add(s.nodes)
	s.nodes = 0
	if s.sh.maxN > 0 && n > s.sh.maxN {
		s.trip(stopNodeBudget)
		return true
	}
	//instlint:allow nondet -- deadline poll: trips the anytime timeout stop, never a score
	if !s.sh.deadline.IsZero() && time.Now().After(s.sh.deadline) {
		s.trip(stopTimeout)
		return true
	}
	if s.sh.ctx.Err() != nil {
		s.trip(stopCanceled)
		return true
	}
	return false
}

// trip stops this searcher and the whole shared search.
func (s *searcher) trip(code int32) {
	s.stopped = true
	s.sh.trip(code)
}

// publish flushes the searcher's remaining stat counters into the shared
// totals (once, when the searcher is done).
func (s *searcher) publish() {
	s.sh.nodes.Add(s.nodes)
	s.sh.prunes.Add(s.prunes)
	s.sh.improved.Add(s.improved)
	s.nodes, s.prunes, s.improved = 0, 0, 0
}

// incumbent is the pruning threshold: the searcher's own best, raised by
// the shared incumbent when other workers run.
func (s *searcher) incumbent() float64 {
	if s.solo {
		return s.best
	}
	if g := s.sh.incumbent(); g > s.best {
		return g
	}
	return s.best
}

// evaluate scores the current mapping and records it if it is the best.
func (s *searcher) evaluate() {
	var sc float64
	if s.p.denom == 0 {
		sc = 1
	} else {
		sc = score.Match(s.env, s.p.lambda)
	}
	if sc > s.best {
		s.best = sc
		s.improved++
		s.bestPairs = append([]match.Pair(nil), s.env.Pairs()...)
		if !s.solo {
			s.sh.offer(sc)
		}
	}
}

// walk is the branch-and-bound DFS from level i on the current
// environment: each level commits one of its pairs, in order, or none.
// Right-injectivity and the mode's other constraints are enforced by
// TryAddPair; the none branch comes last because Def. 5.3 can prefer
// leaving a tuple out.
func (s *searcher) walk(i int) {
	if s.budgetExceeded() {
		return
	}
	if i == s.cut {
		if s.emit != nil {
			s.emit(s.path)
		} else {
			s.evaluate()
		}
		return
	}
	// Optimistic bound: committed pairs contribute at most their
	// optimistic scores (⊓ growth only lowers them), the remaining levels
	// at most suffix[i].
	if s.p.denom > 0 && (s.committedUB+s.p.suffix[i])/s.p.denom <= s.incumbent() {
		s.prunes++
		return
	}
	for k := s.p.start[i]; k < s.p.start[i+1]; k++ {
		m := s.env.Mark()
		if s.env.TryAddPair(s.p.pairs[k]) {
			opt := 2 * s.p.pairOpt[k]
			s.committedUB += opt
			s.path = append(s.path, k)
			s.walk(i + 1)
			s.path = s.path[:len(s.path)-1]
			s.committedUB -= opt
			s.env.Undo(m)
		}
	}
	s.walk(i + 1)
}

// optScore is a static upper bound on a pair's Def. 5.5 score within any
// complete match: equal constants score exactly 1, null-null cells at most
// 1 (⊓ ≥ 1 each side), null-constant cells at most λ. Rows from a
// compatible pair never hold unequal constants at an attribute, so the
// both-ground case contributes exactly 1.
func optScore(lrow, rrow []model.ValueID, lmask, rmask uint64, lambda float64) float64 {
	s := 0.0
	for i := range lrow {
		bit := uint64(1) << i
		switch {
		case lmask&bit != 0 && rmask&bit != 0:
			s++
		case lmask&bit == 0 && rmask&bit == 0:
			s++
		default:
			s += lambda
		}
	}
	return s
}

// newProblem runs CompatibleTuples per relation and lays the candidate
// pairs out as search levels. It is the only place that knows the mode:
// the functional (left-injective) modes give each left tuple one level of
// its candidates, the general mode gives each pair a level of its own
// (include or exclude). Cancellation is polled every
// soloPollInterval left rows — candidate generation is quadratic and can
// dominate short deadlines. A canceled build stops enumerating but still
// produces internally consistent (truncated) structures; RunEnv never
// searches or canonicalizes against them, because its pre-search ctx.Err()
// check trips first.
func newProblem(ctx context.Context, env *match.Env, lambda float64) *problem {
	p := &problem{
		lambda: lambda,
		denom:  float64(env.Left.Size() + env.Right.Size()),
	}
	// bestOpt[j] is the largest optimistic score among left tuple j's
	// candidates: the most matching it can contribute per side.
	var bestOpt []float64
	rows := 0
build:
	for ri := range env.LRels {
		lcode, rcode := env.LCode[ri], env.RCode[ri]
		pr := compat.NewCodedIndex(rcode, nil, env.In).NewProber()
		for li := 0; li < lcode.Rows(); li++ {
			if rows%soloPollInterval == 0 && ctx.Err() != nil {
				break build
			}
			rows++
			lrow, lmask := lcode.Row(li), lcode.Masks[li]
			// The prober reuses its candidate buffer; copy before
			// sorting and storing.
			cs := append([]int(nil), pr.Candidates(lrow, lmask)...)
			lref := match.Ref{Rel: ri, Idx: li}
			// Order candidates by immediate affinity (shared
			// constants first) so good solutions surface early and
			// tighten the bound.
			sort.SliceStable(cs, func(a, b int) bool {
				return sharedConsts(lrow, rcode.Row(cs[a]), lmask&rcode.Masks[cs[a]]) >
					sharedConsts(lrow, rcode.Row(cs[b]), lmask&rcode.Masks[cs[b]])
			})
			p.start = append(p.start, len(p.pairs))
			best := 0.0
			for _, ci := range cs {
				opt := optScore(lrow, rcode.Row(ci), lmask, rcode.Masks[ci], lambda)
				best = max(best, opt)
				p.pairs = append(p.pairs, match.Pair{L: lref, R: match.Ref{Rel: ri, Idx: ci}})
				p.pairOpt = append(p.pairOpt, opt)
			}
			bestOpt = append(bestOpt, best)
		}
	}
	p.start = append(p.start, len(p.pairs))
	if env.Mode.LeftInjective {
		// One level per left tuple: matching it adds at most 2·bestOpt to
		// the numerator (its own tuple score plus its partner's).
		p.suffix = make([]float64, len(bestOpt)+1)
		for j := len(bestOpt) - 1; j >= 0; j-- {
			p.suffix[j] = p.suffix[j+1] + 2*bestOpt[j]
		}
		return p
	}
	// One level per pair. A pair can contribute at most its optimistic
	// score to each endpoint's tuple score, but tuples repeat across
	// pairs, so count each tuple's best remaining pair only.
	p.start = make([]int, len(p.pairs)+1)
	for k := range p.start {
		p.start[k] = k
	}
	p.suffix = make([]float64, len(p.pairs)+1)
	bestL := make([]float64, env.NumLeftTuples())
	bestR := make([]float64, env.NumRightTuples())
	for i := len(p.pairs) - 1; i >= 0; i-- {
		pr := p.pairs[i]
		fl, fr := env.FlatL(pr.L), env.FlatR(pr.R)
		add := 0.0
		if opt := p.pairOpt[i]; opt > bestL[fl] {
			add += opt - bestL[fl]
			bestL[fl] = opt
		}
		if opt := p.pairOpt[i]; opt > bestR[fr] {
			add += opt - bestR[fr]
			bestR[fr] = opt
		}
		p.suffix[i] = p.suffix[i+1] + add
	}
	return p
}

// sharedConsts counts attributes where both rows hold the same constant;
// both is the intersection of the rows' ground masks.
func sharedConsts(a, b []model.ValueID, both uint64) int {
	n := 0
	for i := range a {
		if both&(1<<i) != 0 && a[i] == b[i] {
			n++
		}
	}
	return n
}

// warmStart runs the signature algorithm on the search's own environment
// and converts its match into an incumbent. The pairs are re-inserted in
// the search's canonical order (their order in p.pairs), so the incumbent
// score is bit-identical to the score evaluate() would produce at the
// corresponding leaf — which is what keeps warm-started scores equal to
// cold ones. The environment is returned with an empty mapping either way.
// The context bounds the signature run itself; a canceled warm start still
// seeds the partial match it grew (any prefix of the greedy match is
// valid).
func warmStart(ctx context.Context, env *match.Env, p *problem) (pairs []match.Pair, sc float64, st *signature.Stats, ok bool) {
	m := env.Mark()
	sig, err := signature.RunEnv(ctx, env, signature.Options{Lambda: p.lambda})
	if err != nil {
		env.Undo(m)
		return nil, 0, nil, false
	}
	canon := append([]match.Pair(nil), env.Pairs()...)
	env.Undo(m)
	if !p.canonicalize(canon) {
		return nil, 0, nil, false
	}
	if !env.Replay(canon) {
		// Cannot happen for a complete signature match; bail out
		// rather than seed an incumbent no leaf reproduces.
		return nil, 0, nil, false
	}
	if p.denom == 0 {
		sc = 1
	} else {
		sc = score.Match(env, p.lambda)
	}
	pairs = append([]match.Pair(nil), env.Pairs()...)
	env.Undo(m)
	stats := sig.Stats
	return pairs, sc, &stats, true
}

// canonicalize sorts a match's pairs into the DFS insertion order of the
// search, their order in p.pairs, and verifies every pair is a known
// candidate. It reports false when some pair is outside the candidate list
// (impossible for a sound CompatibleTuples; checked defensively because
// the warm start's score equality depends on it).
func (p *problem) canonicalize(pairs []match.Pair) bool {
	want := make(map[match.Pair]bool, len(pairs))
	for _, pr := range pairs {
		want[pr] = true
	}
	n := 0
	for _, pr := range p.pairs {
		if want[pr] {
			pairs[n] = pr
			n++
		}
	}
	return n == len(pairs)
}

type taskResult struct {
	score float64
	pairs []match.Pair
}

// searchParallel cuts the tree at a prefix depth into subtree tasks and
// runs them on a worker pool. A task is the committed pair indices of one
// feasible, unpruned prefix. Tasks are enumerated in canonical DFS order
// and results reduced in that same order, so the outcome is a function of
// the task results alone, not of scheduling.
func searchParallel(env *match.Env, p *problem, sh *shared, warm float64, workers, splitDepth int) []taskResult {
	depth := splitDepth
	if depth <= 0 {
		depth = p.autoSplitDepth(workers)
	}
	if depth > p.levels() {
		depth = p.levels()
	}

	// Enumerate feasible prefixes on the root environment, pruning with
	// the warm incumbent; enumeration nodes count against the budget.
	var tasks [][]int
	enum := &searcher{p: p, sh: sh, env: env, solo: true, best: warm, cut: depth,
		emit: func(path []int) { tasks = append(tasks, append([]int(nil), path...)) }}
	enum.walk(0)
	enum.publish()
	if enum.stopped || len(tasks) == 0 {
		return nil
	}

	results := make([]taskResult, len(tasks))
	for i := range results {
		// Tasks left unrun by a budget trip must not win the reduction.
		results[i].score = math.Inf(-1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := &searcher{p: p, sh: sh, env: env.Clone(), cut: p.levels()}
			for {
				ti := int(next.Add(1)) - 1
				if ti >= len(tasks) || sh.stop.Load() {
					break
				}
				results[ti] = ws.runTask(tasks[ti], depth)
			}
			ws.publish()
			sh.addCloneStats(ws.env.Stats)
		}()
	}
	wg.Wait()
	return results
}

// autoSplitDepth picks the shallowest split depth whose prefix count
// reaches about eight tasks per worker, so the pool stays busy without
// generating an excessive prefix enumeration.
func (p *problem) autoSplitDepth(workers int) int {
	target := 8 * workers
	if target < 16 {
		target = 16
	}
	prod := 1
	for j := 0; j < p.levels(); j++ {
		prod *= p.start[j+1] - p.start[j] + 1
		if prod >= target {
			return j + 1
		}
	}
	return p.levels()
}

// runTask replays a task's committed pairs into the worker's environment
// and walks the subtree below them from level depth, returning the
// subtree's best leaf. Replay cannot fail: feasibility was established
// during enumeration on an environment in the identical state.
func (s *searcher) runTask(prefix []int, depth int) taskResult {
	m := s.env.Mark()
	s.best, s.bestPairs = math.Inf(-1), nil
	for _, k := range prefix {
		if !s.env.TryAddPair(s.p.pairs[k]) {
			panic("exact: task prefix replay failed")
		}
		s.committedUB += 2 * s.p.pairOpt[k]
	}
	s.walk(depth)
	s.env.Undo(m)
	s.committedUB = 0
	return taskResult{score: s.best, pairs: s.bestPairs}
}
