// Package generator implements the paper's ground-truth construction for
// the evaluation (Sec. 7.1): starting from a base table, it clones a source
// and a target instance with a known positional gold mapping, perturbs both
// with the modCell and addRandomAndRedundant noise processes, updates the
// gold mapping accordingly, and shuffles. The gold mapping yields the
// "score by construction" the paper reports where the exact algorithm times
// out.
package generator

import (
	"math/rand"

	"instcmp/internal/compat"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/score"
)

// Noise parameterizes scenario generation.
type Noise struct {
	// CellPct is the paper's C%: the fraction of cells modified in each
	// of source and target (independently).
	CellPct float64
	// NullShare is the probability a modified cell becomes a labeled
	// null rather than a fresh random constant. Negative means 0; the
	// zero value is interpreted as the paper's equal probability (0.5).
	NullShare float64
	// NullReuse is the probability that a cell whose original value was
	// already replaced by a null elsewhere in the same instance reuses
	// that null ("the same null might have multiple occurrences",
	// Table 2). Zero keeps every injected null fresh.
	NullReuse float64
	// RandomPct is the paper's Rnd%: fraction of fresh random tuples
	// appended to each side (addRandomAndRedundant only).
	RandomPct float64
	// RedundantPct is the paper's Red%: fraction of duplicated tuples
	// appended to each side.
	RedundantPct float64
	// Columns restricts modCell to the given attribute positions (nil =
	// all attributes). Used by the null-attribute ablation.
	Columns []int
	// Seed drives all randomness; equal seeds give equal scenarios.
	Seed int64
}

func (n Noise) nullShare() float64 {
	if n.NullShare < 0 {
		return 0
	}
	if n.NullShare == 0 {
		return 0.5
	}
	return n.NullShare
}

// IDPair is one gold correspondence, by tuple identifier.
type IDPair struct {
	Left, Right model.TupleID
}

// Scenario is a generated comparison problem with its gold mapping.
type Scenario struct {
	Source, Target *model.Instance
	// GoldPairs is the by-construction tuple mapping (n-to-m once
	// duplicates are added). Pairs that the noise made incompatible are
	// dropped when scoring.
	GoldPairs []IDPair
}

// ModCell builds a modCell scenario (Table 2): C% cell changes, mappings
// stay functional and injective.
func ModCell(base *model.Instance, cellPct float64, seed int64) *Scenario {
	return Make(base, Noise{CellPct: cellPct, Seed: seed})
}

// AddRandomAndRedundant builds the Table 3 scenario: modCell plus Rnd%
// random and Red% duplicated tuples on both sides, making the gold mapping
// non-functional and non-injective.
func AddRandomAndRedundant(base *model.Instance, cellPct, rndPct, redPct float64, seed int64) *Scenario {
	return Make(base, Noise{CellPct: cellPct, RandomPct: rndPct, RedundantPct: redPct, Seed: seed})
}

// Make generates a scenario from a base instance. The base is not modified.
func Make(base *model.Instance, n Noise) *Scenario {
	rng := rand.New(rand.NewSource(n.Seed))
	src := base.RenameNulls("s·")
	maxID := model.TupleID(0)
	for _, rel := range src.Relations() {
		for _, t := range rel.Tuples {
			if t.ID > maxID {
				maxID = t.ID
			}
		}
	}
	tgt := base.RenameNulls("t·").ReassignIDs(maxID + 1)

	s := &Scenario{Source: src, Target: tgt}
	// Positional gold mapping: the clones are aligned tuple by tuple.
	for ri, rel := range src.Relations() {
		trel := tgt.Relations()[ri]
		for i := range rel.Tuples {
			s.GoldPairs = append(s.GoldPairs, IDPair{rel.Tuples[i].ID, trel.Tuples[i].ID})
		}
	}

	modCell(src, "s", n, rng)
	modCell(tgt, "t", n, rng)

	// Duplicate Red% of the original rows; a duplicate inherits the gold
	// partners of the row it copies (n-to-m).
	if n.RedundantPct > 0 {
		s.duplicate(src, tgt, n.RedundantPct, rng)
	}
	// Append Rnd% fresh random rows: no gold partners.
	if n.RandomPct > 0 {
		addRandom(src, "s", n.RandomPct, rng)
		addRandom(tgt, "t", n.RandomPct, rng)
	}

	src.Shuffle(rng)
	tgt.Shuffle(rng)
	return s
}

// modCell implements the paper's modCell noise: each cell is modified with
// probability CellPct, becoming a labeled null or a fresh random constant.
func modCell(in *model.Instance, side string, n Noise, rng *rand.Rand) {
	if n.CellPct <= 0 {
		return
	}
	var colMask map[int]bool
	if n.Columns != nil {
		colMask = map[int]bool{}
		for _, c := range n.Columns {
			colMask[c] = true
		}
	}
	reuse := map[model.Value]model.Value{} // original value -> minted null
	rndCount := 0
	for _, rel := range in.Relations() {
		for ti := range rel.Tuples {
			for vi := range rel.Tuples[ti].Values {
				if colMask != nil && !colMask[vi] {
					continue
				}
				if rng.Float64() >= n.CellPct {
					continue
				}
				orig := rel.Tuples[ti].Values[vi]
				if rng.Float64() < n.nullShare() {
					if nv, ok := reuse[orig]; ok && n.NullReuse > 0 && rng.Float64() < n.NullReuse {
						rel.Tuples[ti].Values[vi] = nv
						continue
					}
					nv := in.FreshNull("m" + side)
					reuse[orig] = nv
					rel.Tuples[ti].Values[vi] = nv
					continue
				}
				rndCount++
				rel.Tuples[ti].Values[vi] = model.Constf("rnd%s_%d", side, rndCount)
			}
		}
	}
}

// duplicate copies Red% random original rows on both sides and extends the
// gold mapping so the copies share the originals' partners.
func (s *Scenario) duplicate(src, tgt *model.Instance, pct float64, rng *rand.Rand) {
	partnersOf := map[model.TupleID][]model.TupleID{}
	partnersRev := map[model.TupleID][]model.TupleID{}
	for _, p := range s.GoldPairs {
		partnersOf[p.Left] = append(partnersOf[p.Left], p.Right)
		partnersRev[p.Right] = append(partnersRev[p.Right], p.Left)
	}
	dup := func(in *model.Instance, left bool) {
		for _, rel := range in.Relations() {
			base := len(rel.Tuples)
			count := int(pct * float64(base))
			for k := 0; k < count; k++ {
				t := rel.Tuples[rng.Intn(base)]
				id := in.Append(rel.Name, t.Clone().Values...)
				if left {
					for _, r := range partnersOf[t.ID] {
						s.GoldPairs = append(s.GoldPairs, IDPair{id, r})
					}
				} else {
					for _, l := range partnersRev[t.ID] {
						s.GoldPairs = append(s.GoldPairs, IDPair{l, id})
					}
				}
			}
		}
	}
	dup(src, true)
	dup(tgt, false)
}

// addRandom appends Rnd% rows of fresh constants that match nothing.
func addRandom(in *model.Instance, side string, pct float64, rng *rand.Rand) {
	count := 0
	for _, rel := range in.Relations() {
		base := len(rel.Tuples)
		extra := int(pct * float64(base))
		for k := 0; k < extra; k++ {
			vals := make([]model.Value, rel.Arity())
			for i := range vals {
				count++
				vals[i] = model.Constf("xtr%s_%d_%d", side, count, rng.Intn(1<<30))
			}
			in.Append(rel.Name, vals...)
		}
	}
}

// GoldEnv replays the gold mapping into a fresh match environment,
// dropping pairs the noise made incompatible (the paper's "updating the
// mappings according to these changes"). The returned environment can be
// scored or inspected.
func (s *Scenario) GoldEnv() (*match.Env, error) {
	return s.goldEnv(match.ManyToMany)
}

func (s *Scenario) goldEnv(mode match.Mode) (*match.Env, error) {
	env, err := match.NewEnv(s.Source, s.Target, mode)
	if err != nil {
		return nil, err
	}
	refs := map[model.TupleID]match.Ref{}
	for ri, rel := range s.Source.Relations() {
		for ti, t := range rel.Tuples {
			refs[t.ID] = match.Ref{Rel: ri, Idx: ti}
		}
	}
	for ri, rel := range s.Target.Relations() {
		for ti, t := range rel.Tuples {
			refs[t.ID] = match.Ref{Rel: ri, Idx: ti}
		}
	}
	for _, p := range s.GoldPairs {
		env.TryAddPair(match.Pair{L: refs[p.Left], R: refs[p.Right]})
	}
	return env, nil
}

// GoldScore computes the paper's "score by construction": the Def. 5.3
// score of the gold mapping.
func (s *Scenario) GoldScore(lambda float64) (float64, error) {
	env, err := s.GoldEnv()
	if err != nil {
		return 0, err
	}
	return score.Match(env, lambda), nil
}

// BestKnownScore computes a stronger reference than GoldScore: the gold
// mapping extended greedily with every remaining compatible pair allowed by
// the mode. The similarity is a maximum over complete matches, so any
// complete match is a lower bound; in n-to-m scenarios the raw gold mapping
// loses the pairs the noise made incompatible, while the extension
// re-captures the score an optimal match would find elsewhere (e.g.
// matching a modified tuple against a different but compatible
// counterpart).
func (s *Scenario) BestKnownScore(lambda float64, mode match.Mode) (float64, error) {
	env, err := s.goldEnv(mode)
	if err != nil {
		return 0, err
	}
	gold := score.Match(env, lambda)
	for ri, lcode := range env.LCode {
		pr := compat.NewCodedIndex(env.RCode[ri], nil, env.In).NewProber()
		for li := 0; li < lcode.Rows(); li++ {
			lref := match.Ref{Rel: ri, Idx: li}
			if mode.LeftInjective && env.LeftDegree(lref) > 0 {
				continue
			}
			for _, ci := range pr.Candidates(lcode.Row(li), lcode.Masks[li]) {
				p := match.Pair{L: lref, R: match.Ref{Rel: ri, Idx: ci}}
				if !env.Has(p) {
					env.TryAddPair(p)
				}
				if mode.LeftInjective && env.LeftDegree(lref) > 0 {
					break
				}
			}
		}
	}
	extended := score.Match(env, lambda)
	if gold > extended {
		// Greedy extension is not monotone (tuple scores average
		// over images); both are complete matches, keep the better.
		return gold, nil
	}
	return extended, nil
}
