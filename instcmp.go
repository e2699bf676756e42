// Package instcmp computes similarity scores and explanatory matches
// between relational database instances with labeled nulls, implementing
// "Similarity Measures For Incomplete Database Instances" (EDBT 2024).
//
// An incomplete instance contains labeled nulls (Null values) alongside
// constants; two such instances are compared by finding an instance match —
// a pair of value mappings plus a tuple mapping — that maximizes a
// normalized score in [0, 1]. Isomorphic instances (equal up to null
// renaming) score 1; ground instances without common tuples score 0.
//
// The package offers the paper's two algorithms: the exponential exact
// algorithm (for small instances or with a budget) and the fast greedy
// signature algorithm, whose score differs from the exact optimum by less
// than 1% on the paper's workloads.
//
// Basic usage:
//
//	left := instcmp.NewInstance()
//	left.AddRelation("Conf", "Name", "Year")
//	left.Append("Conf", instcmp.Const("VLDB"), instcmp.Null("N1"))
//	...
//	res, err := instcmp.Compare(left, right, &instcmp.Options{Mode: instcmp.OneToOne})
//	fmt.Println(res.Score, res.Pairs)
package instcmp

import (
	"context"
	"expvar"
	"fmt"
	"slices"
	"strings"
	"time"

	"instcmp/internal/exact"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/score"
	"instcmp/internal/signature"
)

// Core model types, re-exported so applications only import instcmp.
type (
	// Instance is a relational instance with labeled nulls.
	Instance = model.Instance
	// Relation is one named relation of an instance.
	Relation = model.Relation
	// Tuple is one row.
	Tuple = model.Tuple
	// TupleID identifies a tuple within its instance.
	TupleID = model.TupleID
	// Value is a constant or a labeled null.
	Value = model.Value
	// Mode restricts tuple mappings (injectivity, totality).
	Mode = match.Mode
)

// Mode presets (Sec. 4.3 of the paper).
var (
	// OneToOne requires fully-injective tuple mappings: data versioning
	// of unique entities, repair-vs-gold comparison.
	OneToOne = match.OneToOne
	// Functional requires left-injective mappings: comparing a universal
	// solution against a core solution.
	Functional = match.Functional
	// ManyToMany places no restriction: comparing two universal
	// solutions, the most general setting.
	ManyToMany = match.ManyToMany
)

// NewInstance returns an empty instance.
func NewInstance() *Instance { return model.NewInstance() }

// Const returns the constant value with the given text.
func Const(s string) Value { return model.Const(s) }

// Null returns the labeled null with the given name.
func Null(name string) Value { return model.Null(name) }

// DefaultLambda is the default null-to-constant penalty (0 ≤ λ < 1).
const DefaultLambda = score.DefaultLambda

// Algorithm selects the comparison algorithm.
type Algorithm int

const (
	// AlgoAuto uses the exact algorithm for small inputs and the
	// signature algorithm otherwise.
	AlgoAuto Algorithm = iota
	// AlgoSignature always uses the greedy signature algorithm (Sec. 6.2).
	AlgoSignature
	// AlgoExact always uses the exact algorithm (Sec. 6.1); combine with
	// ExactMaxNodes/ExactTimeout on non-trivial inputs.
	AlgoExact
)

func (a Algorithm) String() string {
	switch a {
	case AlgoSignature:
		return "signature"
	case AlgoExact:
		return "exact"
	default:
		return "auto"
	}
}

// autoExactLimit is the AlgoAuto cutoff: instances with at most this many
// tuples combined go to the exact algorithm. Raised from 16 after the
// warm-started search landed: seeding the incumbent with the signature
// match keeps exact runs on 32 combined tuples in the low milliseconds
// (see EXPERIMENTS.md "Auto cutoff"), comparable to the signature
// algorithm's own cost at that size.
const autoExactLimit = 32

// Options configures Compare. The zero value is valid: the most general
// mode (n-to-m), λ = DefaultLambda, automatic algorithm selection.
type Options struct {
	// Mode restricts tuple mappings; zero value is ManyToMany.
	Mode Mode
	// Lambda is the null-to-constant penalty and must satisfy 0 ≤ λ < 1;
	// 0 means DefaultLambda (use ExplicitZeroLambda to request λ = 0).
	// Compare rejects values outside the paper's range.
	Lambda float64
	// ExplicitZeroLambda forces λ = 0 (nulls matched to constants score
	// nothing).
	ExplicitZeroLambda bool
	// Algorithm selects exact or signature; default automatic.
	Algorithm Algorithm
	// ExactMaxNodes bounds exact-search nodes (0 = unbounded).
	ExactMaxNodes int64
	// ExactTimeout bounds exact-search wall-clock time (0 = unbounded).
	ExactTimeout time.Duration
	// ExactWorkers is ignored: the exact search is single-threaded.
	// Negative values are still rejected.
	//
	// Deprecated: the exact engine no longer has a worker pool; leave
	// this unset.
	ExactWorkers int
	// SigWorkers is the number of pipeline workers inside a single
	// signature run, the exact search's warm start included: 0 =
	// GOMAXPROCS, 1 = every phase inline on the calling goroutine (as is
	// any phase below the pipeline's size gate, whatever the count).
	// The pass scan, the rescue and completion fan out; the sig-map build
	// and scoring always run inline. Workers only do read-only work and a
	// single committer applies pairs in canonical scan order, so scores
	// and stats are bit-identical for every worker count; only wall-clock
	// time changes.
	SigWorkers int
	// Partial enables the Sec. 6.3 partial-mapping variant of the
	// signature algorithm.
	Partial bool
	// MinPartialSig is the minimum shared-constant floor for partial
	// matches (default 1).
	MinPartialSig int
	// ConstSimilarity, with Partial, scores conflicting constant cells
	// with their string similarity instead of 0 — the paper's Sec. 9
	// extension. See Levenshtein, JaroWinkler, TrigramJaccard. It must be
	// a pure function: a comparison calls it once per ordered pair of
	// distinct constants and reuses the value.
	ConstSimilarity func(a, b string) float64
	// AlignSchemas pads attributes present on only one side with fresh
	// distinct nulls and adds missing relations as empty, instead of
	// failing on schema mismatch (Sec. 4's recipe).
	AlignSchemas bool
	// DiscoverMapping, when the schemas mismatch, first discovers an
	// attribute mapping (see MapSchemas) and compares under it: the right
	// instance is rewritten into the left schema's spelling, residual
	// differences (dropped/added columns or relations) are padded as with
	// AlignSchemas, and Result.Mapping reports what was discovered. When
	// the schemas already agree, discovery is skipped and results are
	// bit-identical to a plain comparison.
	DiscoverMapping bool
}

// validate rejects option values outside the paper's (or the engines')
// domains. It is the single validation gate shared by the one-shot and the
// prepared comparison paths, so both reject exactly the same inputs with
// exactly the same errors.
func (o *Options) validate() error {
	if o.Lambda < 0 || o.Lambda >= 1 {
		return fmt.Errorf("instcmp: Lambda must satisfy 0 <= λ < 1, got %v", o.Lambda)
	}
	if o.MinPartialSig < 0 {
		return fmt.Errorf("instcmp: MinPartialSig must be non-negative, got %d", o.MinPartialSig)
	}
	if o.ExactWorkers < 0 {
		return fmt.Errorf("instcmp: ExactWorkers must be non-negative, got %d", o.ExactWorkers)
	}
	if o.SigWorkers < 0 {
		return fmt.Errorf("instcmp: SigWorkers must be non-negative, got %d", o.SigWorkers)
	}
	return nil
}

func (o *Options) lambda() float64 {
	if o.ExplicitZeroLambda {
		return 0
	}
	if o.Lambda == 0 {
		return DefaultLambda
	}
	return o.Lambda
}

// Stopped reasons reported by Result.Stopped: comparing incomplete
// instances is NP-hard (Thm. 5.11), so any budgeted or canceled comparison
// can stop early — the result then carries the best match found so far and
// one of these reasons.
const (
	// StoppedTimeout: Options.ExactTimeout expired.
	StoppedTimeout = exact.StoppedTimeout
	// StoppedNodeBudget: Options.ExactMaxNodes was exhausted.
	StoppedNodeBudget = exact.StoppedNodeBudget
	// StoppedCanceled: the CompareContext context was canceled.
	StoppedCanceled = exact.StoppedCanceled
)

// ComparisonStats is the unified observability record populated by every
// comparison, regardless of algorithm. Collecting it never perturbs the
// search: all counters are observations of decisions the algorithms make
// anyway, so scores are bit-identical with and without anyone reading them.
type ComparisonStats struct {
	// Exact-search counters (zero for signature runs).

	// Nodes is the number of search-tree nodes visited.
	Nodes int64
	// Prunes counts subtrees cut by the optimistic bounds.
	Prunes int64
	// Improvements counts incumbent improvements found by the search.
	Improvements int64
	// WarmScore is the score of the exact search's signature warm start:
	// the incumbent an n-to-m search started from, or the fallback match
	// of a stopped 1-to-1 or functional search. It is -1 when the warm
	// start did not run (among others, for an exhaustive 1-to-1 or
	// functional search) and for signature runs.
	WarmScore float64

	// Signature phase breakdown: the signature algorithm's own run, or
	// the exact search's warm start.

	// SigMatches counts tuple pairs discovered by signature probing.
	SigMatches int
	// CompatMatches counts pairs added by the completion step.
	CompatMatches int
	// ScoreAfterSig is the signature match's score before completion.
	ScoreAfterSig float64
	// SigPhase and CompatPhase record signature wall-clock time per phase.
	SigPhase, CompatPhase time.Duration
	// SigWorkers is the signature pipeline's resolved worker count (1 when
	// every phase ran inline, 0 when no signature phase ran at all).
	SigWorkers int
	// SigParallelBlocks totals the produce/commit units the signature
	// pipeline fanned out to workers across phases (scan blocks, rescue
	// tasks, completion blocks); 0 when every phase ran inline — at
	// SigWorkers = 1 or below the size gate.
	SigParallelBlocks int

	// Match-construction counters (both algorithms).

	// PairAttempts and PairRejects count tuple-pair insertion attempts
	// and their rejections (mode or unification conflicts).
	PairAttempts, PairRejects int64
	// ScoreEvals counts pair-score evaluations.
	ScoreEvals int64

	// Per-phase wall clock of the comparison as a whole.

	// NormalizeTime covers input normalization (copying, null renaming,
	// schema alignment).
	NormalizeTime time.Duration
	// SearchTime covers the algorithm run itself.
	SearchTime time.Duration
	// ExplainTime covers extracting pairs, unmatched tuples, and value
	// mappings from the final match.
	ExplainTime time.Duration
}

// apiVars exports cumulative comparison counters for long-running processes
// (expvar key "instcmp.api"): comparisons, comparisons_exact,
// comparisons_signature, stopped, nodes, pair_attempts, elapsed_ns. The
// engine packages export finer-grained counters under "instcmp.exact" and
// "instcmp.signature".
var apiVars = expvar.NewMap("instcmp.api")

// MatchedPair is one element of the resulting tuple mapping, with its
// contribution to the score.
type MatchedPair struct {
	Relation string
	// LeftID and RightID are the matched tuples' identifiers in the
	// caller's original instances.
	LeftID, RightID TupleID
	// Score is the tuple-pair score in [0, arity].
	Score float64
}

// Result is the outcome of a comparison: the similarity score plus the
// explanation the paper's abstract promises — which tuples correspond, how
// nulls were mapped, and which tuples have no counterpart.
type Result struct {
	// Score is the similarity in [0, 1].
	Score float64
	// Algorithm is the algorithm that produced the score.
	Algorithm Algorithm
	// Exhaustive is true when the exact search explored its whole space;
	// always false for the signature algorithm (whose score is a lower
	// bound on the true similarity).
	Exhaustive bool
	// Pairs is the tuple mapping of the best match found.
	Pairs []MatchedPair
	// LeftUnmatched and RightUnmatched list tuples without counterparts.
	LeftUnmatched, RightUnmatched []TupleID
	// LeftValueMapping and RightValueMapping are h_l and h_r restricted
	// to labeled nulls (constants always map to themselves).
	LeftValueMapping, RightValueMapping map[Value]Value
	// Stopped is empty for a comparison that ran to its natural end, and
	// one of StoppedTimeout, StoppedNodeBudget, StoppedCanceled when it
	// was cut short. A stopped comparison still reports the best match
	// found so far (anytime behavior); for the exact algorithm Score is
	// then a lower bound on the true similarity.
	Stopped string
	// Mapping is the discovered schema mapping when Options.DiscoverMapping
	// rewrote the right side, nil otherwise (including when the schemas
	// already agreed and discovery was skipped).
	Mapping *SchemaMapping
	// Stats is the unified run record, populated by both algorithms.
	Stats ComparisonStats
	// Elapsed is the total comparison time.
	Elapsed time.Duration
}

// Compare computes the similarity of two instances and the instance match
// explaining it. The inputs are read, not copied, and never modified:
// whatever the pairing needs fixed (disjoint null namespaces, padded or
// rewritten schemas) is built as a new instance. The caller must not
// mutate either input while the call runs; concurrent compares may share
// them.
func Compare(left, right *Instance, opt *Options) (*Result, error) {
	return CompareContext(context.Background(), left, right, opt)
}

// CompareContext is Compare with a cancellation context. Because the
// underlying problem is NP-hard, cancellation is an anytime operation, not
// an error: when ctx is canceled (or times out) mid-comparison, the call
// returns promptly — within a bounded polling interval of the engines' node
// and scan loops — with the best match found so far, Result.Stopped set to
// StoppedCanceled, and the explanation filled in for that partial match.
// Callers that need hard failure semantics can check Result.Stopped (or
// ctx.Err()) themselves. Like Compare, it reads its inputs in place: they
// must not be mutated until it returns.
func CompareContext(ctx context.Context, left, right *Instance, opt *Options) (*Result, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("instcmp: Compare requires two non-nil instances")
	}
	if opt == nil {
		opt = &Options{}
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	// The prepared sides read the inputs in place and die with the call.
	// Everything that changes an instance (mapping discovery, alignment,
	// renaming nulls apart) builds a new one. Mapping discovery runs inside
	// comparePrepared, which the prepared path shares.
	l, r := left, right
	if !model.SameSchema(left, right) && !opt.DiscoverMapping {
		if !opt.AlignSchemas {
			return nil, match.ErrSchemaMismatch
		}
		l, r = alignSchemas(left, right)
	}
	lp, err := prepareOwned(l)
	if err != nil {
		return nil, err
	}
	rp, err := prepareOwned(r)
	if err != nil {
		return nil, err
	}
	return comparePrepared(ctx, lp, rp, opt, start)
}

// fillEnv copies an environment's match-construction counters into the
// unified stats.
func (s *ComparisonStats) fillEnv(st match.EnvStats) {
	s.PairAttempts = st.PairAttempts
	s.PairRejects = st.PairRejects
	s.ScoreEvals = st.ScoreEvals
}

// fillSignature copies a signature phase breakdown into the unified stats.
func (s *ComparisonStats) fillSignature(sig signature.Stats) {
	s.SigMatches = sig.SigMatches
	s.CompatMatches = sig.CompatMatches
	s.ScoreAfterSig = sig.ScoreAfterSig
	s.SigPhase = sig.SigPhase
	s.CompatPhase = sig.CompatPhase
	s.SigWorkers = sig.Workers
	s.SigParallelBlocks = sig.ScanBlocks + sig.RescueTasks + sig.CompleteBlocks
}

// publish feeds the comparison's aggregates into the package expvars.
func (r *Result) publish() {
	apiVars.Add("comparisons", 1)
	apiVars.Add("comparisons_"+r.Algorithm.String(), 1)
	if r.Stopped != "" {
		apiVars.Add("stopped", 1)
	}
	apiVars.Add("nodes", r.Stats.Nodes)
	apiVars.Add("pair_attempts", r.Stats.PairAttempts)
	apiVars.Add("elapsed_ns", int64(r.Elapsed))
}

// Similarity is a convenience wrapper returning only the score, computed
// with the signature algorithm in the most general mode.
func Similarity(left, right *Instance) (float64, error) {
	res, err := Compare(left, right, &Options{Algorithm: AlgoSignature})
	if err != nil {
		return 0, err
	}
	return res.Score, nil
}

// fillExplanation reports the match in terms of the ORIGINAL instances'
// tuple identifiers. Normalization preserves per-relation tuple order, so a
// position in the normalized copies addresses the same tuple in the
// originals. When mapping discovery renamed right relations, relNames
// translates a compared relation name back to the original right name
// (names absent from a non-nil map were added by discovery or alignment
// and have no original counterpart). matched is scratch for one flag per
// tuple; fillExplanation returns it, grown as needed, for reuse.
func (r *Result) fillExplanation(env *match.Env, lambda float64, origLeft, origRight *Instance, rightPrefix string, relNames map[string]string, matched []bool) []bool {
	rightRel := func(name string) string {
		if relNames == nil {
			return name
		}
		if orig, ok := relNames[name]; ok {
			return orig
		}
		return name
	}
	origID := func(orig *Instance, relName string, idx int) TupleID {
		return orig.Relation(relName).Tuples[idx].ID
	}
	// One flag per tuple at its flat position, left tuples then right.
	nt := env.NumLeftTuples() + env.NumRightTuples()
	matched = slices.Grow(matched[:0], nt)[:nt]
	clear(matched)
	matchedL, matchedR := matched[:env.NumLeftTuples()], matched[env.NumLeftTuples():]
	if n := env.NumPairs(); n > 0 {
		r.Pairs = make([]MatchedPair, 0, n)
	}
	for _, p := range env.Pairs() {
		matchedL[env.FlatL(p.L)] = true
		matchedR[env.FlatR(p.R)] = true
		name := env.LRels[p.L.Rel].Name
		r.Pairs = append(r.Pairs, MatchedPair{
			Relation: name,
			LeftID:   origID(origLeft, name, p.L.Idx),
			RightID:  origID(origRight, rightRel(name), p.R.Idx),
			Score:    score.PairScore(env, p, lambda),
		})
	}
	for ri, rel := range env.LRels {
		if origLeft.Relation(rel.Name) == nil {
			continue // relation added empty by schema alignment
		}
		for ti := range rel.Tuples {
			if !matchedL[env.FlatL(match.Ref{Rel: ri, Idx: ti})] {
				r.LeftUnmatched = append(r.LeftUnmatched, origID(origLeft, rel.Name, ti))
			}
		}
	}
	for ri, rel := range env.RRels {
		if origRight.Relation(rightRel(rel.Name)) == nil {
			continue
		}
		for ti := range rel.Tuples {
			if !matchedR[env.FlatR(match.Ref{Rel: ri, Idx: ti})] {
				r.RightUnmatched = append(r.RightUnmatched, origID(origRight, rightRel(rel.Name), ti))
			}
		}
	}
	// Value mappings are reported in terms of the ORIGINAL instances'
	// null names: right nulls were renamed apart with rightPrefix during
	// normalization, and representatives pointing at renamed right nulls
	// are translated back. Nulls introduced by schema padding stay as
	// they are (they have no original name).
	unrename := func(v Value) Value {
		if rightPrefix == "" || v.IsConst() {
			return v
		}
		if name, ok := strings.CutPrefix(v.Raw(), rightPrefix); ok {
			return Null(name)
		}
		return v
	}
	r.LeftValueMapping = make(map[Value]Value, len(env.LVars))
	r.RightValueMapping = make(map[Value]Value, len(env.RVars))
	for _, v := range env.LVars {
		r.LeftValueMapping[v] = unrename(env.U.Representative(v))
	}
	for _, v := range env.RVars {
		r.RightValueMapping[unrename(v)] = unrename(env.U.Representative(v))
	}
	return matched
}
