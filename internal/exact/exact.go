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
// The signature algorithm (Sec. 6.2) serves as a warm start that never
// changes the returned score (see DESIGN.md §9 for the argument): its match
// is re-inserted in the search's canonical order, so its score is
// bit-identical to the corresponding leaf's. Where it runs depends on the
// level layout. In the general mode the DFS's first descent includes every
// compatible pair, the worst possible incumbent, so the warm start runs
// first and seeds the incumbent, and the suffix bounds prune from node 1.
// In the left-injective modes the first descent is already an
// affinity-greedy injective match, and measured searches visit the same
// nodes warm and cold, so the walk starts cold; the warm start only runs
// as the fallback of a search that stopped, and the result is the better
// of the best leaf and the signature match.
//
// Leaves are scored into one reusable score.Scratch, so the walk does not
// allocate per node.
//
// The search runs on the comparison's integer-coded rows: candidate
// generation probes compat.CodedIndex, the static per-pair bounds read
// ValueIDs and precomputed ground masks, and the suffix bounds accumulate
// in a flat array indexed by level.
package exact

import (
	"cmp"
	"context"
	"expvar"
	"fmt"
	"slices"
	"time"

	"instcmp/internal/compat"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/score"
	"instcmp/internal/signature"
)

// Result.Stopped reasons. A stopped search still returns the best incumbent
// found so far (at minimum the warm start's match, when enabled and the
// context was not canceled before it ran).
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
	stopNone = iota
	stopTimeout
	stopNodeBudget
	stopCanceled
)

func stoppedString(code int) string {
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
	// MaxNodes bounds the number of search-tree nodes (0 = no bound). It is
	// exact: the search counts every node and stops at the first node past
	// the bound.
	MaxNodes int64
	// Timeout bounds the walk's wall-clock time (0 = no bound). The
	// warm-start signature run is polynomial and not counted against it:
	// in the left-injective modes it runs after a tripped deadline, as
	// the stopped search's fallback.
	Timeout time.Duration
	// SigWorkers is the warm-start signature run's pipeline worker count,
	// passed on as signature.Options.Workers (0 = GOMAXPROCS, 1 = inline).
	// Like the warm start itself, it never changes the returned score.
	SigWorkers int
	// NoWarmStart disables the signature warm start in every mode: the
	// general mode's seed and the left-injective modes' fallback
	// (ablation switch; the warm start never changes an exhaustive
	// search's score, only how fast the search converges, and a stopped
	// search without it may return a worse match).
	NoWarmStart bool
	// Scratch, when set, is the run's working memory, reused from earlier
	// runs; nil runs on a fresh one. It never changes the result.
	Scratch *Scratch
}

// Scratch is the working memory of exact runs: the search's problem and
// the index it is built from, the leaf scorer, the incumbent and the warm
// start's signature scratch. A run resets only what it uses and leaves no
// reference to its environment behind. One Scratch serves one run at a
// time.
type Scratch struct {
	// Sig is the warm start's signature scratch; nil runs it on a fresh
	// one.
	Sig *signature.Scratch
	// p is the latest run's problem; newProblem refills its slices, and
	// index, prober, cands and best hold its build scratch.
	p      problem
	index  compat.CodedIndex
	prober compat.Prober
	cands  []int
	best   []float64
	// score scores the leaves; bestPairs backs the incumbent.
	score     score.Scratch
	bestPairs []match.Pair
}

// release drops the scratch's references to the run's coded rows.
func (sc *Scratch) release() {
	sc.index.Release()
	sc.prober.Reset(nil)
}

// Result is the outcome of an exact search. The search is one depth-first
// walk in a fixed order, so equal inputs and options give an equal score,
// pairs and counters (Nodes, Prunes, Improvements, EnvStats); only a
// Timeout or a canceled context can stop it at a different node.
type Result struct {
	Env   *match.Env
	Score float64
	// Pairs is the best tuple mapping found.
	Pairs []match.Pair
	// Exhaustive reports whether the whole search space was explored; if
	// false the score is a lower bound on the true similarity.
	Exhaustive bool
	// Nodes is the number of search-tree nodes visited.
	Nodes int64
	// Prunes counts subtrees cut by the optimistic suffix bounds.
	Prunes int64
	// Improvements counts the leaves that raised the incumbent (the warm
	// start's seed is not counted).
	Improvements int64
	// WarmScore is the score of the warm start's match: the seed of a
	// general-mode search, or the fallback of a stopped left-injective
	// search. It is -1 when the warm start did not run (disabled, an
	// exhaustive left-injective search, a context canceled before the
	// walk) or its match fell outside the candidate list. A stopped run
	// never reports less than WarmScore.
	WarmScore float64
	// SigStats is the warm-start signature run's phase breakdown, nil
	// exactly when WarmScore is -1.
	SigStats *signature.Stats
	// Stopped reports why a non-exhaustive search stopped: one of
	// StoppedTimeout, StoppedNodeBudget, StoppedCanceled. Empty when
	// Exhaustive.
	Stopped string
	// EnvStats holds the environment's pair-attempt counters over the
	// whole run: warm start (when it ran), search and the final re-apply
	// of the best match.
	EnvStats match.EnvStats
}

// Run executes the exact algorithm. The returned environment holds the best
// match re-applied, so callers can extract value mappings and explanations.
// Cancellation is polled in the node loop alongside the deadline, every
// pollInterval nodes, so a canceled search returns promptly with the best
// incumbent found so far and Result.Stopped = StoppedCanceled. The context
// also bounds the warm-start signature run, so a left-injective search's
// fallback after a cancel returns promptly too.
func Run(ctx context.Context, left, right *model.Instance, mode match.Mode, opt Options) (*Result, error) {
	env, err := match.NewEnv(left, right, mode)
	if err != nil {
		return nil, err
	}
	return RunEnv(ctx, env, opt)
}

// RunEnv executes the exact search on a caller-built environment whose
// tuple mapping must be empty — the one-shot Run's or the one a prepared
// comparison assembled with match.Env.Reset. The returned Result
// aliases env.
func RunEnv(ctx context.Context, env *match.Env, opt Options) (*Result, error) {
	if env.NumPairs() != 0 {
		return nil, fmt.Errorf("exact: RunEnv requires an empty tuple mapping, got %d pairs", env.NumPairs())
	}
	sc := opt.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	defer sc.release()
	p := newProblem(ctx, env, opt.Lambda, sc)
	s := &searcher{p: p, env: env, ctx: ctx, maxN: opt.MaxNodes, best: -1,
		params: score.Params{Lambda: opt.Lambda}, scratch: &sc.score, bestPairs: sc.bestPairs[:0]}
	if opt.Timeout > 0 {
		//instlint:allow nondet -- wall-clock deadline only triggers anytime degradation (Stopped=timeout with the best-so-far score); it never feeds a score
		s.deadline = time.Now().Add(opt.Timeout)
	}

	warmScore := -1.0
	var sigStats *signature.Stats
	warm := func() {
		if wp, ws, st, ok := warmStart(ctx, env, p, opt.SigWorkers, sc); ok {
			warmScore, sigStats = ws, st
			if ws > s.best {
				s.best, s.bestPairs = ws, wp
			}
		}
	}
	// Every ctx.Err() guard below also protects canonicalize: a canceled
	// newProblem returns a truncated candidate structure that must not be
	// indexed by a warm-start match. A context canceled before (or during)
	// the general mode's warm start skips the search entirely.
	leftInj := env.Mode.LeftInjective
	if !opt.NoWarmStart && !leftInj && ctx.Err() == nil {
		warm()
	}
	if ctx.Err() != nil {
		s.reason = stopCanceled
	} else {
		s.walk(0)
		// A left-injective walk that stopped falls back on the signature
		// match, which a short budget may not have reached.
		if !opt.NoWarmStart && leftInj && s.reason != stopNone {
			warm()
		}
	}

	// Re-apply the best mapping so the returned Env reflects it. Replay
	// inserts the pairs in the order they were scored, so s.best is
	// already the score of the replayed match.
	env.Undo(match.Mark{})
	res := &Result{
		Env:          env,
		Score:        s.best,
		Exhaustive:   s.reason == stopNone,
		Nodes:        s.nodes,
		Prunes:       s.prunes,
		Improvements: s.improved,
		WarmScore:    warmScore,
		SigStats:     sigStats,
		Stopped:      stoppedString(s.reason),
	}
	if !env.Replay(s.bestPairs) {
		panic("exact: best mapping no longer applies")
	}
	sc.bestPairs = s.bestPairs
	if s.best < 0 {
		// Stopped before the first leaf with no warm match: the empty
		// mapping.
		res.Score = score.MatchS(env, s.params, s.scratch)
	}
	res.Pairs = env.Pairs()
	res.EnvStats = env.Stats
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
// structures and bounds, computed once before the walk.
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

// searcher is the search's mutable state: the environment it extends and
// rolls back, the incumbent, the budget and the counters.
type searcher struct {
	p   *problem
	env *match.Env
	// ctx carries caller cancellation; maxN and deadline are the node and
	// time budgets (zero = none).
	ctx      context.Context
	maxN     int64
	deadline time.Time
	// committedUB is a running upper bound on the numerator contribution
	// of the pairs currently in the environment (2 x optimistic score
	// each), maintained incrementally.
	committedUB float64
	// nodes, prunes and improved are the Result counters.
	nodes    int64
	prunes   int64
	improved int64
	// reason records why the search stopped once the budget or the
	// context trips it; stopNone while it runs.
	reason int
	// best/bestPairs are the incumbent: the best leaf seen so far, or the
	// warm start's match before any leaf beats it.
	best      float64
	bestPairs []match.Pair
	// params and scratch score the leaves without allocating.
	params  score.Params
	scratch *score.Scratch
}

// pollInterval is how many nodes the search visits between deadline and
// cancellation polls: the interval that bounds how far a search can
// overshoot its Timeout or outlive its context.
const pollInterval = 1024

// budgetExceeded counts the node and checks the node/time budget and the
// context; once it trips, it stays tripped so the whole search unwinds
// immediately and the result is marked inexact.
func (s *searcher) budgetExceeded() bool {
	if s.reason != stopNone {
		return true
	}
	s.nodes++
	if s.maxN > 0 && s.nodes > s.maxN {
		s.reason = stopNodeBudget
		return true
	}
	if s.nodes%pollInterval == 0 {
		//instlint:allow nondet -- deadline poll: trips the anytime timeout stop, never a score
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			s.reason = stopTimeout
			return true
		}
		if s.ctx.Err() != nil {
			s.reason = stopCanceled
			return true
		}
	}
	return false
}

// evaluate scores the current mapping and records it if it is the best.
func (s *searcher) evaluate() {
	if sc := score.MatchS(s.env, s.params, s.scratch); sc > s.best {
		s.best = sc
		s.improved++
		s.bestPairs = append(s.bestPairs[:0], s.env.Pairs()...)
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
	if i == s.p.levels() {
		s.evaluate()
		return
	}
	// Optimistic bound: committed pairs contribute at most their
	// optimistic scores (⊓ growth only lowers them), the remaining levels
	// at most suffix[i].
	if s.p.denom > 0 && (s.committedUB+s.p.suffix[i])/s.p.denom <= s.best {
		s.prunes++
		return
	}
	for k := s.p.start[i]; k < s.p.start[i+1]; k++ {
		m := s.env.Mark()
		if s.env.TryAddPair(s.p.pairs[k]) {
			opt := 2 * s.p.pairOpt[k]
			s.committedUB += opt
			s.walk(i + 1)
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
// pollInterval left rows — candidate generation is quadratic and can
// dominate short deadlines. A canceled build stops enumerating but still
// produces internally consistent (truncated) structures; RunEnv never
// searches or canonicalizes against them, because its pre-search ctx.Err()
// check trips first. The problem is sc's, built in sc's buffers.
func newProblem(ctx context.Context, env *match.Env, lambda float64, sc *Scratch) *problem {
	p := &sc.p
	*p = problem{
		lambda:  lambda,
		pairs:   p.pairs[:0],
		pairOpt: p.pairOpt[:0],
		start:   p.start[:0],
		suffix:  p.suffix[:0],
		denom:   float64(env.Left.Size() + env.Right.Size()),
	}
	// bestOpt[j] is the largest optimistic score among left tuple j's
	// candidates: the most matching it can contribute per side.
	bestOpt := sc.best[:0]
	rows := 0
build:
	for ri := range env.LRels {
		lcode, rcode := env.LCode[ri], env.RCode[ri]
		sc.index.Reset(rcode, nil, env.In)
		sc.prober.Reset(&sc.index)
		for li := 0; li < lcode.Rows(); li++ {
			if rows%pollInterval == 0 && ctx.Err() != nil {
				break build
			}
			rows++
			lrow, lmask := lcode.Row(li), lcode.Masks[li]
			// The prober reuses its candidate buffer; copy before
			// sorting and storing.
			cs := append(sc.cands[:0], sc.prober.Candidates(lrow, lmask)...)
			sc.cands = cs
			lref := match.Ref{Rel: ri, Idx: li}
			// Order candidates by immediate affinity (shared
			// constants first) so good solutions surface early and
			// tighten the bound.
			slices.SortStableFunc(cs, func(a, b int) int {
				return cmp.Compare(sharedConsts(lrow, rcode.Row(b), lmask&rcode.Masks[b]),
					sharedConsts(lrow, rcode.Row(a), lmask&rcode.Masks[a]))
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
		p.suffix = compat.Zeroed(p.suffix, len(bestOpt)+1)
		for j := len(bestOpt) - 1; j >= 0; j-- {
			p.suffix[j] = p.suffix[j+1] + 2*bestOpt[j]
		}
		sc.best = bestOpt
		return p
	}
	// One level per pair. A pair can contribute at most its optimistic
	// score to each endpoint's tuple score, but tuples repeat across
	// pairs, so count each tuple's best remaining pair only.
	p.start = p.start[:0]
	for k := range len(p.pairs) + 1 {
		p.start = append(p.start, k)
	}
	p.suffix = compat.Zeroed(p.suffix, len(p.pairs)+1)
	// bestOpt is dead: its buffer holds the tuples' best remaining pairs.
	nL := env.NumLeftTuples()
	sc.best = compat.Zeroed(bestOpt, nL+env.NumRightTuples())
	bestL, bestR := sc.best[:nL], sc.best[nL:]
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
func warmStart(ctx context.Context, env *match.Env, p *problem, sigWorkers int, scratch *Scratch) (pairs []match.Pair, sc float64, st *signature.Stats, ok bool) {
	m := env.Mark()
	sig, err := signature.RunEnv(ctx, env, signature.Options{Lambda: p.lambda, Workers: sigWorkers, Scratch: scratch.Sig})
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
	sc = score.MatchS(env, score.Params{Lambda: p.lambda}, &scratch.score)
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
