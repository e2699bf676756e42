// Package match implements the formalism of Section 4 of the paper: value
// mappings, tuple mappings with injectivity/totality classes, and complete
// instance matches. Its central type, Env, is the shared working state of
// both the exact and the signature algorithm: the two instances, the value
// unifier, and the tuple mapping grown so far, with exact rollback.
//
// Env runs on the integer-coded representation of internal/model: NewEnv
// interns every constant and null of the comparison once into dense ValueID
// codes and recodes both instances' tuples as flat []ValueID rows. The
// per-pair hot path — ModeAllows, TryAddPair, Undo — then works exclusively
// on arrays indexed by flattened tuple positions (one dense index space per
// side, relations concatenated) and never touches a Go map or allocates per
// probe.
package match

import (
	"errors"
	"fmt"

	"instcmp/internal/model"
	"instcmp/internal/unify"
)

// Mode restricts the tuple mappings an algorithm may construct and the
// totality conditions a finished match is validated against (Sec. 4.2).
type Mode struct {
	// LeftInjective forbids matching one left tuple to two right tuples
	// (the paper's "left injective", i.e. the mapping is functional on I).
	LeftInjective bool
	// RightInjective forbids matching one right tuple to two left tuples.
	RightInjective bool
	// RequireLeftTotal demands every left tuple be matched (validation).
	RequireLeftTotal bool
	// RequireRightTotal demands every right tuple be matched (validation).
	RequireRightTotal bool
}

// Preset modes for the scenarios discussed in Sec. 4.3 and used in Sec. 7.
var (
	// OneToOne is the fully-injective mode (Table 2: "functional and
	// injective (1 to 1)"; data versioning, constraint-based repair).
	OneToOne = Mode{LeftInjective: true, RightInjective: true}
	// Functional is the left-injective mode (universal-vs-core data
	// exchange comparison).
	Functional = Mode{LeftInjective: true}
	// ManyToMany places no injectivity restriction (Table 3:
	// "non-functional and non-injective (n to m)"; universal-vs-universal).
	ManyToMany = Mode{}
)

func (m Mode) String() string {
	switch {
	case m.LeftInjective && m.RightInjective:
		return "1-to-1"
	case m.LeftInjective:
		return "functional"
	case m.RightInjective:
		return "co-functional"
	default:
		return "n-to-m"
	}
}

// Ref addresses one tuple of one side of a comparison by relation index and
// position. Positions are stable because Env never reorders tuples.
type Ref struct {
	Rel int
	Idx int
}

// Pair is one element of a tuple mapping: a left tuple matched to a right
// tuple of the same relation.
type Pair struct {
	L, R Ref
}

// Env is the mutable state of an in-progress instance match between a fixed
// left and right instance. All mutation happens through TryAddPair and is
// reversible with Mark/Undo, which the exact algorithm uses for
// backtracking and the signature algorithm for tentative compatibility
// probes.
type Env struct {
	Left, Right *model.Instance
	LRels       []*model.Relation
	RRels       []*model.Relation
	// LCode and RCode are the integer-coded images of LRels and RRels in
	// the shared interner In's ID space.
	LCode, RCode []*model.CodedRelation
	// LVars and RVars alias the prepared sides' sorted nulls (read-only).
	LVars, RVars []model.Value
	In           *model.Interner
	U            *unify.Unifier
	Mode         Mode

	// lBase/rBase map a Ref to its flattened per-side tuple index:
	// flat = base[ref.Rel] + ref.Idx. The flat index spaces are dense,
	// so the image tables below are plain slices.
	lBase, rBase []int
	nL, nR       int

	pairs    []Pair
	leftImg  [][]Ref // flat left index -> matched right refs
	rightImg [][]Ref // flat right index -> matched left refs
	// img backs leftImg and rightImg, slab their first entries, and table
	// is the right side's translation into the joint ID space; Reset
	// reuses all three.
	img   [][]Ref
	slab  []Ref
	table []model.ValueID

	// Stats counts the match-construction work done through this
	// environment (see instcmp.ComparisonStats). Counters are plain ints:
	// an Env is single-goroutine state.
	Stats EnvStats
}

// EnvStats counts the pair-level work performed on one environment. The
// counters never influence any decision the algorithms make; they exist for
// observability only.
type EnvStats struct {
	// PairAttempts counts TryAddPair/TryAddPartialPair calls.
	PairAttempts int64
	// PairRejects counts attempts rejected by the mode or by a
	// unification conflict.
	PairRejects int64
	// ScoreEvals counts pair-score evaluations (score.PairScoreP).
	ScoreEvals int64
}

// ErrSchemaMismatch is returned when the two instances do not share a
// relational schema. (Sec. 4 discusses padding with fresh-null columns to
// align differing schemas; see model.AddNullColumn and package versioning.)
var ErrSchemaMismatch = errors.New("match: instances have different schemas")

// ErrSharedNulls is returned when the two instances share a labeled null,
// violating the Vars(I) ∩ Vars(I') = ∅ precondition. Callers can rename with
// model.RenameNulls.
var ErrSharedNulls = errors.New("match: instances share labeled nulls")

// ErrTooManyAttributes is returned for relations wider than 64 attributes:
// the candidate indexes and signature maps encode attribute sets as uint64
// bitmasks.
var ErrTooManyAttributes = errors.New("match: relations with more than 64 attributes are not supported")

// NewEnv validates the comparison preconditions, interns both instances into
// the integer-coded representation, and returns a fresh environment with an
// empty tuple mapping. It is PrepareSide on each side followed by
// Reset: the one-shot and the prepared path build one environment.
func NewEnv(left, right *model.Instance, mode Mode) (*Env, error) {
	if !model.SameSchema(left, right) {
		return nil, ErrSchemaMismatch
	}
	l, err := PrepareSide(left)
	if err != nil {
		return nil, err
	}
	r, err := PrepareSide(right)
	if err != nil {
		return nil, err
	}
	e := new(Env)
	if err := e.Reset(l, r, mode); err != nil {
		return nil, err
	}
	return e, nil
}

// Replay extends the match with a sequence of pairs, all-or-nothing: when
// any pair is rejected the environment is rolled back to its prior state
// and Replay reports false. The exact search uses it to re-establish a
// match (a warm-start incumbent, the final best match) in a rolled-back
// environment.
func (e *Env) Replay(pairs []Pair) bool {
	m := e.Mark()
	for _, p := range pairs {
		if !e.TryAddPair(p) {
			e.Undo(m)
			return false
		}
	}
	return true
}

// FlatL returns the dense per-side index of a left tuple (relations
// concatenated in schema order).
func (e *Env) FlatL(ref Ref) int { return e.lBase[ref.Rel] + ref.Idx }

// FlatR returns the dense per-side index of a right tuple.
func (e *Env) FlatR(ref Ref) int { return e.rBase[ref.Rel] + ref.Idx }

// NumLeftTuples returns the size of the left flat index space.
func (e *Env) NumLeftTuples() int { return e.nL }

// NumRightTuples returns the size of the right flat index space.
func (e *Env) NumRightTuples() int { return e.nR }

// LeftRow returns the coded row of a left tuple.
func (e *Env) LeftRow(ref Ref) []model.ValueID {
	return e.LCode[ref.Rel].Row(ref.Idx)
}

// RightRow returns the coded row of a right tuple.
func (e *Env) RightRow(ref Ref) []model.ValueID {
	return e.RCode[ref.Rel].Row(ref.Idx)
}

// Pairs returns the current tuple mapping. The slice is shared; callers
// must not mutate it.
func (e *Env) Pairs() []Pair { return e.pairs }

// NumPairs returns the size of the current tuple mapping.
func (e *Env) NumPairs() int { return len(e.pairs) }

// LeftImage returns m(t) for a left tuple: the right tuples it is matched to.
func (e *Env) LeftImage(ref Ref) []Ref { return e.leftImg[e.FlatL(ref)] }

// RightImage returns m(t') for a right tuple.
func (e *Env) RightImage(ref Ref) []Ref { return e.rightImg[e.FlatR(ref)] }

// LeftDegree returns |m(t)| for a left tuple.
func (e *Env) LeftDegree(ref Ref) int { return len(e.leftImg[e.FlatL(ref)]) }

// RightDegree returns |m(t')| for a right tuple.
func (e *Env) RightDegree(ref Ref) int { return len(e.rightImg[e.FlatR(ref)]) }

// Has reports whether the pair is already part of the mapping. It scans the
// smaller of the two endpoints' images — degrees are tiny in practice, and
// the scan keeps the per-pair bookkeeping free of map probes.
func (e *Env) Has(p Pair) bool {
	li, ri := e.leftImg[e.FlatL(p.L)], e.rightImg[e.FlatR(p.R)]
	if len(li) <= len(ri) {
		for _, r := range li {
			if r == p.R {
				return true
			}
		}
		return false
	}
	for _, l := range ri {
		if l == p.L {
			return true
		}
	}
	return false
}

// ModeAllows reports whether adding the pair would respect the mode's
// injectivity restrictions given the current mapping.
func (e *Env) ModeAllows(p Pair) bool {
	fl, fr := e.FlatL(p.L), e.FlatR(p.R)
	if e.Mode.LeftInjective && len(e.leftImg[fl]) > 0 {
		return false
	}
	if e.Mode.RightInjective && len(e.rightImg[fr]) > 0 {
		return false
	}
	return !e.Has(p)
}

// Mark is a checkpoint capturing the environment state for Undo.
type Mark struct {
	umark int
	nvals int
}

// Mark returns a checkpoint for Undo.
func (e *Env) Mark() Mark {
	return Mark{umark: e.U.Mark(), nvals: len(e.pairs)}
}

// Undo rolls the environment back to a checkpoint, removing every pair and
// unifier merge added after it.
func (e *Env) Undo(m Mark) {
	e.U.Undo(m.umark)
	for len(e.pairs) > m.nvals {
		p := e.pairs[len(e.pairs)-1]
		e.pairs = e.pairs[:len(e.pairs)-1]
		fl, fr := e.FlatL(p.L), e.FlatR(p.R)
		e.leftImg[fl] = pop(e.leftImg[fl])
		e.rightImg[fr] = pop(e.rightImg[fr])
	}
}

func pop(s []Ref) []Ref { return s[:len(s)-1] }

// addPair records an accepted pair in the dense image tables.
func (e *Env) addPair(p Pair) {
	e.pairs = append(e.pairs, p)
	fl, fr := e.FlatL(p.L), e.FlatR(p.R)
	e.leftImg[fl] = append(e.leftImg[fl], p.R)
	e.rightImg[fr] = append(e.rightImg[fr], p.L)
}

// TryAddPair attempts to extend the match with a pair, unifying the two
// tuples cell by cell. It returns false and leaves the environment
// unchanged when the mode forbids the pair, the relations differ, or the
// unification hits a constant conflict (the pair is incompatible with the
// current match, Sec. 6.1 step 2).
func (e *Env) TryAddPair(p Pair) bool {
	e.Stats.PairAttempts++
	if p.L.Rel != p.R.Rel || !e.ModeAllows(p) {
		e.Stats.PairRejects++
		return false
	}
	lrow, rrow := e.LeftRow(p.L), e.RightRow(p.R)
	um := e.U.Mark()
	for i := range lrow {
		if !e.U.MergeID(lrow[i], rrow[i]) {
			e.U.Undo(um)
			e.Stats.PairRejects++
			return false
		}
	}
	e.addPair(p)
	return true
}

// TryAddPartialPair extends the match with a possibly partial pair
// (Sec. 6.3): cells that cannot be unified are left unmerged and will score
// 0. The pair is accepted when it is fully compatible, or when the tuples
// agree on at least minShared constant attributes. It returns whether the
// pair was added and the number of conflicting cells.
func (e *Env) TryAddPartialPair(p Pair, minShared int) (added bool, conflicts int) {
	e.Stats.PairAttempts++
	if p.L.Rel != p.R.Rel || !e.ModeAllows(p) {
		e.Stats.PairRejects++
		return false, 0
	}
	if minShared < 1 {
		minShared = 1
	}
	lrow, rrow := e.LeftRow(p.L), e.RightRow(p.R)
	null := e.In.NullFlags()
	um := e.U.Mark()
	shared := 0
	for i := range lrow {
		lv, rv := lrow[i], rrow[i]
		if !null[lv] && !null[rv] {
			if lv == rv {
				shared++
			} else {
				conflicts++
			}
			continue
		}
		if !e.U.MergeID(lv, rv) {
			conflicts++
		}
	}
	if conflicts > 0 && shared < minShared {
		e.U.Undo(um)
		e.Stats.PairRejects++
		return false, conflicts
	}
	e.addPair(p)
	return true, conflicts
}

// WouldAccept reports whether TryAddPair would succeed, without mutating
// the environment (the signature algorithm's IsCompatible check).
func (e *Env) WouldAccept(p Pair) bool {
	m := e.Mark()
	ok := e.TryAddPair(p)
	if ok {
		e.Undo(m)
	}
	return ok
}

// CheckTotality validates the mode's totality requirements against the
// current mapping. It returns nil when they hold.
func (e *Env) CheckTotality() error {
	if e.Mode.RequireLeftTotal {
		for ri, r := range e.LRels {
			for ti := range r.Tuples {
				if len(e.leftImg[e.lBase[ri]+ti]) == 0 {
					return fmt.Errorf("match: left tuple t%d unmatched but mode requires left-total", r.Tuples[ti].ID)
				}
			}
		}
	}
	if e.Mode.RequireRightTotal {
		for ri, r := range e.RRels {
			for ti := range r.Tuples {
				if len(e.rightImg[e.rBase[ri]+ti]) == 0 {
					return fmt.Errorf("match: right tuple t%d unmatched but mode requires right-total", r.Tuples[ti].ID)
				}
			}
		}
	}
	return nil
}

// ValueMapping materializes one side's value mapping h from the unifier:
// every value of that side's active domain maps to its class
// representative. Identity entries are included so the result is total on
// the active domain (Def. 4.1). This is a decode-boundary helper: it works
// in caller-facing Values, not IDs.
func (e *Env) ValueMapping(side unify.Side) map[model.Value]model.Value {
	src := e.Left
	if side == unify.Right {
		src = e.Right
	}
	h := map[model.Value]model.Value{}
	for v := range src.ActiveDomain() {
		h[v] = e.U.Representative(v)
	}
	return h
}

// IsComplete verifies Def. 4.3: h_l(t) = h_r(t') for every matched pair.
// It always holds for matches grown through TryAddPair and exists as an
// invariant check for tests and for externally supplied matches.
func (e *Env) IsComplete() bool {
	for _, p := range e.pairs {
		lrow, rrow := e.LeftRow(p.L), e.RightRow(p.R)
		for i := range lrow {
			if !e.U.SameClassID(lrow[i], rrow[i]) {
				return false
			}
		}
	}
	return true
}
