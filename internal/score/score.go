// Package score implements the scoring of instance matches from Section 5
// of the paper: cell scores (Def. 5.5 with the non-injectivity measure ⊓ of
// Eq. 6 and the null-to-constant penalty λ), tuple scores (Def. 5.2), and
// the normalized instance-match score (Def. 5.3).
//
// Scoring runs on the comparison's integer-coded representation: cells are
// compared by dense ValueID (equal constants are equal IDs), ⊓ comes from
// the ID-indexed union-find, and per-tuple accumulation uses flat arrays
// instead of Ref-keyed maps. The Value-based Cell/CellP entry points remain
// for callers outside the coded world. Scoring runs on the calling
// goroutine: fanning pair scores out to workers measured no faster at 2
// CPUs (DESIGN.md §12).
package score

import (
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/unify"
)

// DefaultLambda is the default penalty for mapping a labeled null to a
// constant. The paper requires 0 ≤ λ < 1; 0.5 weighs a null-constant
// agreement as half a constant-constant agreement.
const DefaultLambda = 0.5

// Params extends the scoring function for the paper's Sec. 9 extension:
// besides the λ penalty, an optional constant-similarity function gives
// partial credit to matched cells holding different constants (only
// partial matches, Sec. 6.3, ever contain such cells; complete matches
// score them 0 regardless).
type Params struct {
	// Lambda is the null-to-constant penalty of Def. 5.5.
	Lambda float64
	// ConstSim scores two distinct constants in [0, 1); nil means 0
	// (the paper's base measure). It must be a pure function: a Scratch
	// memoizes it.
	ConstSim func(a, b string) float64
}

// Cell returns score(M, t, t', A) for the A-th attribute of a matched pair,
// per Def. 5.5:
//
//	0                  if h_l(t.A) ≠ h_r(t'.A)
//	1                  if both cells are equal constants
//	2 / (⊓l + ⊓r)      if both cells are nulls equated by the match
//	2λ / (⊓l + ⊓r)     if a null is matched against a constant
//
// where ⊓ of a constant is 1 and ⊓ of a null is the number of same-side
// nulls its value mapping collapses together (Eq. 6).
func Cell(u *unify.Unifier, lv, rv model.Value, lambda float64) float64 {
	return CellP(u, lv, rv, Params{Lambda: lambda})
}

// CellP is Cell with full scoring parameters: unequal constants earn their
// ConstSim similarity instead of 0 when one is configured.
func CellP(u *unify.Unifier, lv, rv model.Value, p Params) float64 {
	in := u.Interner()
	return CellIDP(u, in.Intern(lv), in.Intern(rv), p)
}

// CellIDP is the coded-cell form of CellP: the hot path of all pair scoring.
// Equal constants are equal IDs; the interner is consulted for raw strings
// only on the rare differing-constants-with-ConstSim branch.
func CellIDP(u *unify.Unifier, lv, rv model.ValueID, p Params) float64 {
	return cellID(u, lv, rv, p, nil)
}

// cellID is CellIDP that asks memo, when not nil, for ConstSim values.
func cellID(u *unify.Unifier, lv, rv model.ValueID, p Params, memo *Scratch) float64 {
	ln, rn := u.IsNullID(lv), u.IsNullID(rv)
	if !ln && !rn {
		if lv == rv {
			return 1
		}
		if p.ConstSim != nil {
			if memo != nil {
				return memo.constSim(u, lv, rv, p.ConstSim)
			}
			return p.ConstSim(u.Raw(lv), u.Raw(rv))
		}
		return 0
	}
	if !u.SameClassID(lv, rv) {
		return 0
	}
	den := float64(u.SideCountID(lv, unify.Left) + u.SideCountID(rv, unify.Right))
	if ln && rn {
		return 2 / den
	}
	return 2 * p.Lambda / den
}

// PairScore returns score(M, t, t'): the sum of cell scores over the
// relation's attributes.
func PairScore(e *match.Env, p match.Pair, lambda float64) float64 {
	return PairScoreP(e, p, Params{Lambda: lambda})
}

// PairScoreP is PairScore with full scoring parameters.
func PairScoreP(e *match.Env, pair match.Pair, p Params) float64 {
	return pairScore(e, pair, p, nil)
}

// pairScore is PairScoreP that asks memo, when not nil, for ConstSim
// values.
func pairScore(e *match.Env, pair match.Pair, p Params, memo *Scratch) float64 {
	e.Stats.ScoreEvals++
	lrow, rrow := e.LeftRow(pair.L), e.RightRow(pair.R)
	s := 0.0
	for i := range lrow {
		s += cellID(e.U, lrow[i], rrow[i], p, memo)
	}
	return s
}

// Match returns score(M) per Def. 5.3: the tuple scores of both sides
// normalized by size(I) + size(I'). Two empty instances score 1 (they are
// trivially isomorphic).
func Match(e *match.Env, lambda float64) float64 {
	return MatchP(e, Params{Lambda: lambda})
}

// MatchP is Match with full scoring parameters.
func MatchP(e *match.Env, params Params) float64 {
	return MatchS(e, params, new(Scratch))
}

// Scratch holds the per-tuple accumulators of a match score, so a caller
// that scores many matches (the exact search scores every leaf, a pooled
// comparison workspace every comparison) allocates them once. The zero
// value is ready to use. Every call leaves the accumulators zeroed again,
// resetting only the entries it touched.
//
// A Scratch also memoizes Params.ConstSim, which must be a pure function,
// by the ordered pair of ValueIDs it scores. IDs mean something only
// within one environment's ID space, so a caller that scores another
// environment with a ConstSim must call Forget first. A Scratch is not
// safe for concurrent use.
type Scratch struct {
	lsum, rsum     []float64
	lcnt, rcnt     []int32
	lorder, rorder []int32
	// sims maps uint64(lv)<<32 | rv to ConstSim's value for the pair;
	// simKeys lists its keys, so Forget costs what was memoized.
	sims    map[uint64]float64
	simKeys []uint64
}

// constSim returns sim of the two constants' texts, calling it once per
// ordered pair of IDs.
func (s *Scratch) constSim(u *unify.Unifier, lv, rv model.ValueID, sim func(a, b string) float64) float64 {
	k := uint64(uint32(lv))<<32 | uint64(uint32(rv))
	if v, ok := s.sims[k]; ok {
		return v
	}
	if s.sims == nil {
		s.sims = map[uint64]float64{}
	}
	v := sim(u.Raw(lv), u.Raw(rv))
	s.sims[k] = v
	s.simKeys = append(s.simKeys, k)
	return v
}

// PairScore is PairScoreP asking the memo for ConstSim values.
func (s *Scratch) PairScore(e *match.Env, pair match.Pair, p Params) float64 {
	return pairScore(e, pair, p, s)
}

// Forget empties the ConstSim memo, in time proportional to its entries.
func (s *Scratch) Forget() {
	for _, k := range s.simKeys {
		delete(s.sims, k)
	}
	s.simKeys = s.simKeys[:0]
}

// MatchS is MatchP accumulating in s. The fold order is MatchP's, so the
// two return the same bits.
func MatchS(e *match.Env, params Params, s *Scratch) float64 {
	den := float64(e.Left.Size() + e.Right.Size())
	if den == 0 {
		return 1
	}
	l, r := s.tupleScores(e, params)
	return (l + r) / den
}

// tupleScores returns the Def. 5.2 tuple scores summed over all left tuples
// and all right tuples: each matched tuple contributes the average pair
// score over its image, unmatched tuples contribute 0. Pair scores are
// symmetric in the pair, so each is computed once and credits both
// endpoints' averages. Accumulation is indexed by flattened tuple position
// and follows the tuple mapping's insertion order, so equal matches always
// yield bit-identical scores (no map-iteration nondeterminism).
func (s *Scratch) tupleScores(e *match.Env, params Params) (left, right float64) {
	if nl := e.NumLeftTuples(); len(s.lsum) < nl {
		s.lsum, s.lcnt = make([]float64, nl), make([]int32, nl)
	}
	if nr := e.NumRightTuples(); len(s.rsum) < nr {
		s.rsum, s.rcnt = make([]float64, nr), make([]int32, nr)
	}
	for _, p := range e.Pairs() {
		ps := pairScore(e, p, params, s)
		fl, fr := e.FlatL(p.L), e.FlatR(p.R)
		if s.lcnt[fl] == 0 {
			s.lorder = append(s.lorder, int32(fl))
		}
		s.lsum[fl] += ps
		s.lcnt[fl]++
		if s.rcnt[fr] == 0 {
			s.rorder = append(s.rorder, int32(fr))
		}
		s.rsum[fr] += ps
		s.rcnt[fr]++
	}
	for _, fl := range s.lorder {
		left += s.lsum[fl] / float64(s.lcnt[fl])
		s.lsum[fl], s.lcnt[fl] = 0, 0
	}
	for _, fr := range s.rorder {
		right += s.rsum[fr] / float64(s.rcnt[fr])
		s.rsum[fr], s.rcnt[fr] = 0, 0
	}
	s.lorder, s.rorder = s.lorder[:0], s.rorder[:0]
	return left, right
}
