// Package signature implements the paper's approximate instance-comparison
// algorithm (Sec. 6.2, Algorithms 3 and 4). The algorithm greedily grows an
// instance match in two phases:
//
//  1. Signature-based matching: tuples are hashed by their maximal
//     signatures (the positional encoding of their constant attributes,
//     Def. 6.2) and probed from the other side through progressively
//     smaller attribute subsets, in both directions (Property 1).
//  2. Completion: the remaining candidate pairs are produced by
//     CompatibleTuples (Alg. 2) and confirmed greedily.
//
// The per-tuple subset enumeration is restricted to attribute sets that
// actually occur as some indexed tuple's maximal-signature set (the
// "null-pattern" optimization): enumerating any other subset can never hit
// a signature-map entry, so this is a pure optimization that keeps the
// fully-signature-based case (Case 2 of Sec. 6.2) linear in the instance
// size and combinatorial only in the number of distinct null patterns.
//
// The whole phase runs on the comparison's integer-coded representation:
// a signature hashes to the XOR of one mixed 64-bit word per (attribute,
// ValueID) cell instead of a built string, both signature indexes are one
// flat open-addressing table (sigTable), ground masks are precomputed per
// coded row, and the greedy bookkeeping (per-tuple score sums) lives in
// flat arrays indexed by flattened tuple position.
package signature

import (
	"cmp"
	"context"
	"expvar"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"instcmp/internal/compat"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/score"
)

// StoppedCanceled is the Result.Stopped reason for a run cut short by
// context cancellation.
const StoppedCanceled = "canceled"

// vars exports cumulative run counters for long-running processes
// (expvar key "instcmp.signature"): runs, sig_matches, compat_matches,
// canceled, plus the fanned-out pipeline unit counters scan_blocks,
// rescue_tasks, complete_blocks (zero while every phase runs inline).
var vars = expvar.NewMap("instcmp.signature")

// Options configures a signature-algorithm run.
type Options struct {
	// Lambda is the null-to-constant penalty of Def. 5.5.
	Lambda float64
	// Partial enables the Sec. 6.3 partial-mapping variant: tuples may be
	// matched when they share a (non-maximal) signature even if they
	// conflict on other constants; conflicting cells score 0.
	Partial bool
	// MinPartialSig is the minimum number of shared constant attributes a
	// partial signature must cover (ignored unless Partial). Values < 1
	// are treated as 1.
	MinPartialSig int
	// ConstSim, when set, scores conflicting constant cells of partial
	// matches with their string similarity instead of 0 (the paper's
	// Sec. 9 extension). Only meaningful with Partial. It must be pure: a
	// run calls it once per ordered pair of constants and memoizes it.
	ConstSim func(a, b string) float64
	// Workers is the number of pipeline workers inside a single run: 0
	// means GOMAXPROCS, 1 runs every phase inline on the calling
	// goroutine, as does any phase below the minParallelRows size gate.
	// Only the pass scan, the rescue and completion fan out; the sig-map
	// build and scoring always run inline. The result is bit-identical
	// for every worker count — workers only do read-only work (pattern
	// probing, sub-signature hashing, candidate generation) and a single
	// committer applies pairs in canonical scan order (DESIGN.md §12) — so
	// only wall-clock time changes.
	Workers int

	// Ablation switches (benchmarks only; the defaults are what the
	// library ships with):

	// DisableRescue skips the sub-signature rescue round, leaving
	// cross-null pairs to the completion step (the paper's literal
	// Alg. 3).
	DisableRescue bool
	// SingleRound skips the perfect-pairs-first round, accepting pairs
	// in pure scan order like the paper's literal greedy.
	SingleRound bool
	// NoGainGuard disables the net-gain check in tryPair, accepting
	// every compatible pair like the paper's literal UpdateInstanceMatch.
	NoGainGuard bool

	// Scratch, when set, is the run's working memory, reused from earlier
	// runs; nil runs on a fresh one. It never changes the result.
	Scratch *Scratch
}

// Scratch is the working memory of a signature run: the greedy score
// sums, the signature table and its items, the recorded candidates the
// general round replays, the rescue's and completion's buffers, the
// compatibility index, and the match scorer with its ConstSim memo. A run
// resets only what it uses, so a Scratch grown by a large comparison
// serves a small one at the small one's cost, and it leaves the Scratch
// holding no reference to its environment. One Scratch serves one run at
// a time.
type Scratch struct {
	// r is the runner of the latest run: RunEnv resets its per-run
	// fields and keeps its buffers.
	r runner
}

// buffers is the part of a runner that outlives its run.
type buffers struct {
	// sigs, items, patterns, and seen are buildSigMap scratch reused
	// across the two builds per relation (one per direction) and across
	// relations: the previous pass's index is dead by the time the next
	// one is built. seen holds exactly the keys listed in patterns.
	sigs     sigTable
	items    []sigItem
	patterns []uint64
	seen     map[uint64]bool
	// scanSpare is the pass scan's inline payload, handed back to the
	// next pass for reuse.
	scanSpare candBlock
	// replay holds the candidates the perfect-pairs round's passes
	// committed, at 2*ri for the left-indexed pass of relation ri and at
	// 2*ri+1 for the right-indexed one, for the general round to commit
	// again. It is empty when there is one round.
	replay []candBlock
	// The rescue's unmatched rows, their distinct ground masks, the masks
	// it probes (maskSeen is the dedup set, empty between uses) and its
	// inline payload.
	leftUn, rightUn       []sigItem
	lMasks, rMasks, masks []uint64
	maskSeen              map[uint64]bool
	rescueSpare           rescueTask
	// Completion's unsaturated rows, its index, the inline prober and
	// payload.
	leftIdxs, rightIdxs []int
	index               compat.CodedIndex
	prober              compat.Prober
	completeSpare       candBlock
	// score scores pairs and the match, memoizing ConstSim.
	score score.Scratch
}

// params bundles the scoring parameters for this run.
func (o Options) params() score.Params {
	return score.Params{Lambda: o.Lambda, ConstSim: o.ConstSim}
}

// Stats reports how the match was assembled, feeding the paper's Table 4
// ablation.
type Stats struct {
	// SigMatches counts tuple pairs discovered by signature probing.
	SigMatches int
	// CompatMatches counts pairs added by the completion step.
	CompatMatches int
	// ScoreAfterSig is the match score before the completion step.
	ScoreAfterSig float64
	// SigPhase and CompatPhase record wall-clock time per phase.
	SigPhase    time.Duration
	CompatPhase time.Duration
	// Workers is the resolved pipeline worker count of the run (1 means
	// every phase ran inline).
	Workers int
	// ScanBlocks, RescueTasks, and CompleteBlocks count the produce/commit
	// units the pipeline fanned out to workers per phase (scan blocks of
	// the signature passes, per-mask rescue tasks, completion candidate
	// blocks). Units run inline are not counted, so all three stay 0 at
	// Workers = 1 and below the size gate. The general round's passes
	// replay the perfect-pairs round's candidates and produce nothing, so
	// ScanBlocks counts the first round's blocks only.
	ScanBlocks, RescueTasks, CompleteBlocks int
}

// Result is a completed signature run: the environment holds the final
// instance match (tuple mapping plus unifier).
type Result struct {
	Env   *match.Env
	Score float64
	Stats Stats
	// Stopped is empty for a run that completed normally, and
	// StoppedCanceled when the context was canceled mid-run. A canceled
	// run still returns the match grown so far and its score (the
	// algorithm is greedy, so any prefix of its work is a valid — merely
	// smaller — instance match).
	Stopped string
}

// Run executes the signature algorithm on two instances under the given
// mode. The instances must share a schema and have disjoint nulls. The
// context is polled between phases and relations and every
// cancelPollInterval tuples inside them.
func Run(ctx context.Context, left, right *model.Instance, mode match.Mode, opt Options) (*Result, error) {
	env, err := match.NewEnv(left, right, mode)
	if err != nil {
		return nil, err
	}
	return RunEnv(ctx, env, opt)
}

// RunEnv executes the signature algorithm on a caller-built environment
// whose tuple mapping must be empty: a prepared comparison passes the
// environment match.Env.Reset assembled, and the exact search
// warm-starts its branch-and-bound by running RunEnv on its own
// environment, reading off the match, and rolling it back with Mark/Undo
// (every mutation goes through the environment's trail).
func RunEnv(ctx context.Context, env *match.Env, opt Options) (*Result, error) {
	if env.NumPairs() != 0 {
		return nil, fmt.Errorf("signature: RunEnv requires an empty tuple mapping, got %d pairs", env.NumPairs())
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sc := opt.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	s := &sc.r
	*s = runner{
		buffers: s.buffers,
		env:     env,
		ctx:     ctx,
		opt:     opt,
		workers: workers,
		sumL:    compat.Zeroed(s.sumL, env.NumLeftTuples()),
		sumR:    compat.Zeroed(s.sumR, env.NumRightTuples()),
	}
	defer s.release()
	s.score.Forget()
	r := &Result{Env: env}

	//instlint:allow nondet -- phase stopwatch feeds Stats.SigPhase, a human-facing duration, never a score
	start := time.Now()
	// Round 1 accepts only perfect pairs (pair score = arity: unchanged
	// tuples, pure null renamings), so imperfect candidates cannot steal
	// a tuple from its exact counterpart; round 2 fills in the rest.
	rounds := []bool{true, false}
	s.replay = s.replay[:0]
	if opt.SingleRound {
		rounds = []bool{false}
	} else {
		s.replay = slices.Grow(s.replay, 2*len(env.LRels))[:2*len(env.LRels)]
	}
rounds:
	for _, perfect := range rounds {
		s.perfectOnly = perfect
		for ri := range env.LRels {
			if s.canceled() {
				break rounds
			}
			// Pass 1: signature map over the left relation, scan
			// the right; pass 2 the reverse.
			s.pass(ri, true)
			s.pass(ri, false)
			// Rescue round: sub-signature probing for tuples both
			// passes missed because their null positions differ
			// (Fig. 6's t2/t5). A rescued pair always holds a null
			// opposite a constant somewhere, so it can never be
			// perfect — skip the round entirely while perfectOnly.
			if !opt.DisableRescue && !perfect {
				s.rescue(ri)
			}
		}
	}
	r.Stats.SigMatches = env.NumPairs()
	r.Stats.SigPhase = time.Since(start)
	r.Stats.ScoreAfterSig = score.MatchS(env, opt.params(), &s.score)

	//instlint:allow nondet -- phase stopwatch feeds Stats.CompatPhase, a human-facing duration, never a score
	start = time.Now()
	if !s.canceled() {
		s.complete()
	}
	r.Stats.CompatMatches = env.NumPairs() - r.Stats.SigMatches
	r.Stats.CompatPhase = time.Since(start)

	r.Score = score.MatchS(env, opt.params(), &s.score)
	if s.canceled() {
		r.Stopped = StoppedCanceled
		vars.Add("canceled", 1)
	}
	r.Stats.Workers = workers
	r.Stats.ScanBlocks = s.scanBlocks
	r.Stats.RescueTasks = s.rescueTasks
	r.Stats.CompleteBlocks = s.completeBlocks
	vars.Add("runs", 1)
	vars.Add("sig_matches", int64(r.Stats.SigMatches))
	vars.Add("compat_matches", int64(r.Stats.CompatMatches))
	vars.Add("scan_blocks", int64(s.scanBlocks))
	vars.Add("rescue_tasks", int64(s.rescueTasks))
	vars.Add("complete_blocks", int64(s.completeBlocks))
	return r, nil
}

type runner struct {
	buffers
	env *match.Env
	ctx context.Context
	opt Options
	// workers is the resolved pipeline worker count (>= 1); fanOut
	// decides per phase whether it is used.
	workers int
	// perfectOnly restricts tryPair to pairs scoring the full arity.
	perfectOnly bool
	// Running per-tuple pair-score sums (values as of insertion time),
	// backing the net-gain guard in tryPair. Indexed by flattened tuple
	// position.
	sumL, sumR []float64
	// scanBlocks, rescueTasks, and completeBlocks count fanned-out
	// pipeline units, feeding Stats.
	scanBlocks, rescueTasks, completeBlocks int
	// stopped latches the first observed context cancellation so later
	// checks are a plain field read. It is only ever touched from the
	// goroutine running the phases; pipeline workers poll ctx directly.
	stopped bool
}

// release drops the runner's references to its environment, its context
// and its options (a ConstSim closure may hold anything), keeping the
// buffers for the next run.
func (s *runner) release() {
	s.env, s.ctx, s.opt = nil, nil, Options{}
	s.index.Release()
	s.prober.Reset(nil)
}

// cancelPollInterval bounds how many tuples a scan processes between
// context polls: lakes are dominated by single-relation instances, so
// between-relation checks alone would not bound cancellation latency.
const cancelPollInterval = 1024

// canceled reports (and latches) context cancellation.
func (s *runner) canceled() bool {
	if s.stopped {
		return true
	}
	if s.ctx.Err() != nil {
		s.stopped = true
	}
	return s.stopped
}

func (s *runner) leftSaturated(ref match.Ref) bool {
	return s.env.Mode.LeftInjective && s.env.LeftDegree(ref) > 0
}

func (s *runner) rightSaturated(ref match.Ref) bool {
	return s.env.Mode.RightInjective && s.env.RightDegree(ref) > 0
}

// sigHash hashes the Def. 6.2 signature of a coded row on the attribute set
// given as a bitmask: the XOR of cellHash over the set's attributes. The
// XOR is order-free, so no attribute order is needed, and it is cheap on
// subsets: for S ⊆ G, sigHash(row, S) == sigHash(row, G) ^
// sigHash(row, G&^S) (see subHash). Hash collisions are harmless — a
// colliding candidate merely reaches the pair-compatibility check
// (TryAddPair / TryAddPartialPair), which verifies the real values — so
// hashing only ever adds spurious candidates, never drops real ones.
func sigHash(row []model.ValueID, mask uint64) uint64 {
	var h uint64
	for m := mask; m != 0; m &= m - 1 {
		a := bits.TrailingZeros64(m)
		h ^= cellHash(a, row[a])
	}
	return h
}

// cellHash mixes one (attribute, ValueID) cell into 64 bits with the
// splitmix64 finalizer. The attribute is offset by one so that no cell
// maps to the finalizer's fixed point 0, which would make a signature
// with that cell collide with the signature without it.
func cellHash(a int, id model.ValueID) uint64 {
	return model.Mix64(uint64(a+1)<<32 | uint64(uint32(id)))
}

// subHash returns sigHash(row, sub) for sub ⊆ ground, given
// hg = sigHash(row, ground), hashing whichever of sub and the dropped
// attributes ground&^sub is smaller.
func subHash(row []model.ValueID, ground, hg, sub uint64) uint64 {
	if drop := ground &^ sub; bits.OnesCount64(drop) < bits.OnesCount64(sub) {
		return hg ^ sigHash(row, drop)
	}
	return sigHash(row, sub)
}

// sigTable indexes row positions by signature hash: an open-addressing
// table of power-of-two size and load at most 1/2, whose slots point at
// runs of one flat row array. Most probes miss, so a one-hash bit filter
// of about 16 bits per item, indexed by the hash's top bits (the slots use
// the low ones), turns most misses away before they touch a slot. It holds
// no map and no pointers, so the runner reuses it across builds and the GC
// never scans it.
type sigTable struct {
	slots  []sigSlot
	rows   []int32
	filter []uint64
	// fshift maps a hash to its filter bit: h >> fshift.
	fshift uint8
}

// sigSlot is one table slot: the rows indexed under hash h are
// rows[off:off+n]. n == 0 marks an empty slot.
type sigSlot struct {
	h      uint64
	off, n int32
}

// fill indexes items so that bucket(h) lists the ti of every item with
// hash h in item order. It runs in two passes: counting run lengths, then
// placing rows in reverse item order from the end of each run. If ctx is
// canceled, fill leaves the table empty, so every probe stays in bounds.
func (t *sigTable) fill(ctx context.Context, items []sigItem) {
	size := 1
	for size < 2*len(items) {
		size <<= 1
	}
	t.slots = slices.Grow(t.slots[:0], size)[:size]
	clear(t.slots)
	fbits := 64
	for fbits < 16*len(items) {
		fbits <<= 1
	}
	t.filter = slices.Grow(t.filter[:0], fbits/64)[:fbits/64]
	clear(t.filter)
	t.fshift = uint8(64 - bits.TrailingZeros(uint(fbits)))
	mask := uint64(size - 1)
	for i := range items {
		if i%cancelPollInterval == 0 && ctx.Err() != nil {
			t.empty()
			return
		}
		j := items[i].h & mask
		for t.slots[j].n != 0 && t.slots[j].h != items[i].h {
			j = (j + 1) & mask
		}
		t.slots[j].h = items[i].h
		t.slots[j].n++
		items[i].slot = int32(j)
		f := items[i].h >> t.fshift
		t.filter[f/64] |= 1 << (f % 64)
	}
	var end int32
	for j := range t.slots {
		end += t.slots[j].n
		t.slots[j].off = end
	}
	t.rows = slices.Grow(t.rows[:0], len(items))[:len(items)]
	for i := len(items) - 1; i >= 0; i-- {
		if i%cancelPollInterval == 0 && ctx.Err() != nil {
			t.empty()
			return
		}
		sl := &t.slots[items[i].slot]
		sl.off--
		t.rows[sl.off] = items[i].ti
	}
}

// empty leaves the table with one empty slot, no rows and a clear filter.
func (t *sigTable) empty() {
	t.slots = append(t.slots[:0], sigSlot{})
	t.rows = t.rows[:0]
	t.filter = append(t.filter[:0], 0)
	t.fshift = 64 - 6
}

// bucket returns the rows indexed under the given signature hash, in item
// order; nil when there are none.
func (t *sigTable) bucket(h uint64) []int32 {
	if !t.mayHold(h) {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for j := h & mask; t.slots[j].n != 0; j = (j + 1) & mask {
		if sl := t.slots[j]; sl.h == h {
			return t.rows[sl.off : sl.off+sl.n]
		}
	}
	return nil
}

// mayHold reports whether the filter lets a probe of h through; false
// means no item has hash h.
func (t *sigTable) mayHold(h uint64) bool {
	f := h >> t.fshift
	return t.filter[f/64]&(1<<(f%64)) != 0
}

// sortPatterns orders distinct signature masks canonically: larger
// attribute sets first, ties by value. The order is total over distinct
// masks, so it does not depend on the order the masks were discovered in.
func sortPatterns(patterns []uint64) {
	slices.SortFunc(patterns, func(a, b uint64) int {
		if c := cmp.Compare(bits.OnesCount64(b), bits.OnesCount64(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// tryPair adds a pair to the match if it is compatible with the current
// match and the mode, using the partial variant when configured.
//
// Beyond Alg. 3's bare greedy, tryPair applies a net-gain guard: since
// Def. 5.2 averages a tuple's score over its image, adding a mediocre pair
// to two already-matched tuples can lower the total score (and would break
// Eq. 2 on isomorphic inputs in the n-to-m mode). A pair is kept only when
// the two endpoints' combined average-score change is positive; the change
// is evaluated with insertion-time pair scores, which keeps the guard O(1).
func (s *runner) tryPair(p match.Pair) bool {
	if s.opt.Partial {
		added, _ := s.env.TryAddPartialPair(p, s.opt.MinPartialSig)
		return added
	}
	kl, kr := float64(s.env.LeftDegree(p.L)), float64(s.env.RightDegree(p.R))
	m := s.env.Mark()
	if !s.env.TryAddPair(p) {
		return false
	}
	sc := s.score.PairScore(s.env, p, s.opt.params())
	if s.perfectOnly && score.LessEps(sc, float64(s.env.LRels[p.L.Rel].Arity()), score.PerfectEps) {
		s.env.Undo(m)
		return false
	}
	fl, fr := s.env.FlatL(p.L), s.env.FlatR(p.R)
	dl, dr := sc, sc
	if kl > 0 {
		dl = (s.sumL[fl]+sc)/(kl+1) - s.sumL[fl]/kl
	}
	if kr > 0 {
		dr = (s.sumR[fr]+sc)/(kr+1) - s.sumR[fr]/kr
	}
	// score.LessEps(x, 0, GainEps) is exactly x < -1e-12: 0-GainEps has an
	// exact float64 representation, so the guard's branch is unchanged.
	if score.LessEps(dl+dr, 0, score.GainEps) && !s.opt.NoGainGuard {
		s.env.Undo(m)
		return false
	}
	s.sumL[fl] += sc
	s.sumR[fr] += sc
	return true
}
