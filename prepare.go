package instcmp

// This file is the public half of the Prepare/Compare split. Preparing an
// instance snapshots it and performs every partner-independent step of a
// comparison up front — validation, the sorted null inventory, integer
// coding of all cells, the signature algorithm's per-relation attribute
// orders — so that a resident instance (in a registry, a lake, a server) is
// compared many times but normalized and coded exactly once. The prepared
// path and the one-shot Compare path produce bit-identical results: both
// funnel into comparePrepared, and the engine assembles identical
// environments from prepared sides (see internal/match/prepared.go).

import (
	"context"
	"fmt"
	"sync"
	"time"

	"instcmp/internal/exact"
	"instcmp/internal/match"
	"instcmp/internal/model"
	"instcmp/internal/signature"
)

// Prepared is an instance made ready for repeated comparison. It is
// immutable and safe for concurrent use: any number of goroutines may pass
// the same Prepared to ComparePreparedContext at once, because comparisons
// only read the prepared state (each comparison extends the frozen value
// interner and remaps coded rows into its own environment).
//
// Preparation pays off when the prepared instance's schema and null
// namespace need no per-comparison fixing: comparing two prepared instances
// with equal schemas and disjoint null names skips normalization and coding
// entirely. When schemas differ (with Options.AlignSchemas) or null names
// collide, the comparison transparently falls back to re-preparing the
// adjusted copies — correct, but no faster than the one-shot path.
type Prepared struct {
	inst *Instance
	side *match.PreparedSide
}

// Prepare snapshots the instance and builds its reusable comparison state.
// The input is cloned first, so later mutations of in do not affect the
// prepared snapshot.
func Prepare(in *Instance) (*Prepared, error) {
	if in == nil {
		return nil, fmt.Errorf("instcmp: Prepare requires a non-nil instance")
	}
	return prepareOwned(in.Clone())
}

// prepareOwned builds prepared state over an instance nobody mutates while
// that state is live (a clone, an alignSchemas rebuild, a rename, or a
// one-shot compare's input for the length of the call) — no defensive copy.
func prepareOwned(inst *Instance) (*Prepared, error) {
	side, err := match.PrepareSide(inst)
	if err != nil {
		return nil, err
	}
	return &Prepared{inst: inst, side: side}, nil
}

// Instance returns the prepared snapshot. It is shared with the prepared
// state, not copied: callers must not modify it.
func (p *Prepared) Instance() *Instance { return p.inst }

// NumTuples returns the total tuple count of the prepared instance.
func (p *Prepared) NumTuples() int { return p.side.NumTuples() }

// SketchFeatures returns the instance's canonical sketch feature stream: the
// deduplicated FNV-1a hashes of its distinct (attribute name, constant)
// cells, computed from the resident coded rows (see signature.SketchFeatures).
// The lake's MinHash sketches and banded signature index are built over this
// stream; equal cells hash equal across instances and across processes.
func (p *Prepared) SketchFeatures() []uint64 { return signature.SketchFeatures(p.side) }

// ValueOverlap is the lake prefilter's constant overlap, computed without
// allocating: the Jaccard index of both instances' first maxSample (> 0)
// distinct constants in scan order, 1 when neither has a constant.
func (p *Prepared) ValueOverlap(other *Prepared, maxSample int) float64 {
	return p.side.ValueOverlap(other.side, maxSample)
}

// WithRelationName returns a view of a single-relation prepared instance
// whose relation carries the given name. The coded state is shared — value
// codes do not depend on relation names — so the view
// costs a few small allocations regardless of instance size. Lake ranking
// uses this to align a candidate's table name with the example's without
// re-preparing the candidate. The receiver is returned unchanged when it is
// not single-relation or already carries the name.
func (p *Prepared) WithRelationName(name string) *Prepared {
	inst := p.inst.WithRelationName(name)
	if inst == p.inst {
		return p
	}
	return &Prepared{inst: inst, side: p.side.WithRelations(inst)}
}

// ComparePrepared compares two prepared instances. See
// ComparePreparedContext.
func ComparePrepared(left, right *Prepared, opt *Options) (*Result, error) {
	return ComparePreparedContext(context.Background(), left, right, opt)
}

// ComparePreparedContext is CompareContext over prepared instances: same
// options, same anytime cancellation semantics, bit-identical scores, stats
// counters, and explanations — minus the per-call normalization and coding
// cost when the prepared snapshots are directly comparable (equal schemas,
// disjoint null names). Both arguments may be shared with concurrent
// comparisons.
func ComparePreparedContext(ctx context.Context, left, right *Prepared, opt *Options) (*Result, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("instcmp: ComparePrepared requires two non-nil prepared instances")
	}
	if opt == nil {
		opt = &Options{}
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return comparePrepared(ctx, left, right, opt, time.Now())
}

// comparePrepared is the Compare half of the split: both the one-shot and
// the prepared entry points end here with validated options and prepared
// sides. It runs the comparison on a pooled workspace and, once the
// comparison has returned (error or not), puts the workspace back if it is
// poolable. A comparison that panics (a ConstSimilarity that panics, say)
// never puts it back: its buffers may be half updated, and a caller that
// recovers must not compare on them again.
func comparePrepared(ctx context.Context, lp, rp *Prepared, opt *Options, start time.Time) (*Result, error) {
	ws := workspaces.Get().(*workspace)
	res, err := ws.compare(ctx, lp, rp, opt, start)
	if ws.poolable() {
		workspaces.Put(ws)
	}
	return res, err
}

// maxPooledTuples caps the comparisons whose workspace goes back to the
// pool; a workspace a larger comparison grew is left to the collector.
// Lake candidates (48 tuples a compare), served instances (80) and exact
// compares (up to 1,000) reuse theirs, while a run of 5,600- to 20,000-tuple
// signature compares does not keep their buffers alive between compares:
// pooling those raised the peak RSS of such a run by a fifth.
const maxPooledTuples = 4096

// poolable reports whether the workspace's last comparison was small
// enough for the workspace to go back to the pool.
func (ws *workspace) poolable() bool {
	return ws.env.NumLeftTuples()+ws.env.NumRightTuples() <= maxPooledTuples
}

// compare fixes whatever still depends on the pairing — schema alignment,
// null-namespace disjointness — re-preparing only the sides that actually
// change, then runs the selected engine on the prepared state in the
// workspace and reports the match in terms of the prepared snapshots'
// tuple identifiers. Every path out drops the workspace's references to
// the compared instances and their interners, so a pooled workspace pins
// none of them.
func (ws *workspace) compare(ctx context.Context, lp, rp *Prepared, opt *Options, start time.Time) (*Result, error) {
	defer ws.env.Release()
	l, r := lp, rp
	var mapping *SchemaMapping
	var relNames map[string]string
	if opt.DiscoverMapping && !model.SameSchema(l.inst, r.inst) {
		rewritten, sm, names, err := discoverForCompare(l.inst, r.inst)
		if err != nil {
			return nil, err
		}
		if r, err = prepareOwned(rewritten); err != nil {
			return nil, err
		}
		mapping, relNames = sm, names
	}
	// Discovery implies residual alignment: a partial mapping leaves
	// dropped/added columns and unmatched relations for Sec. 4 padding.
	if (opt.AlignSchemas || mapping != nil) && !model.SameSchema(l.inst, r.inst) {
		al, ar := alignSchemas(l.inst, r.inst)
		var err error
		if l, err = prepareOwned(al); err != nil {
			return nil, err
		}
		if r, err = prepareOwned(ar); err != nil {
			return nil, err
		}
	}
	if !model.SameSchema(l.inst, r.inst) {
		return nil, match.ErrSchemaMismatch
	}
	rightPrefix := ""
	if preparedVarsOverlap(l, r) {
		var err error
		r, rightPrefix, err = renameApartPrepared(l, r)
		if err != nil {
			return nil, err
		}
	}

	algo := opt.Algorithm
	if algo == AlgoAuto {
		// Partial matching is implemented by the signature algorithm
		// only; otherwise small inputs afford the exact search.
		if !opt.Partial && l.side.NumTuples()+r.side.NumTuples() <= autoExactLimit {
			algo = AlgoExact
		} else {
			algo = AlgoSignature
		}
	}
	if algo == AlgoExact && opt.Partial {
		return nil, fmt.Errorf("instcmp: the exact algorithm does not support partial matches; use AlgoSignature")
	}

	res := &Result{Algorithm: algo, Mapping: mapping}
	res.Stats.NormalizeTime = time.Since(start)
	res.Stats.WarmScore = -1
	searchStart := time.Now()
	env := &ws.env
	if err := env.Reset(l.side, r.side, opt.Mode); err != nil {
		return nil, err
	}
	switch algo {
	case AlgoExact:
		ex, err := exact.RunEnv(ctx, env, exact.Options{
			Lambda:     opt.lambda(),
			MaxNodes:   opt.ExactMaxNodes,
			Timeout:    opt.ExactTimeout,
			SigWorkers: opt.SigWorkers,
			Scratch:    &ws.exact,
		})
		if err != nil {
			return nil, err
		}
		res.Score = ex.Score
		res.Exhaustive = ex.Exhaustive
		res.Stopped = ex.Stopped
		res.Stats.Nodes = ex.Nodes
		res.Stats.Prunes = ex.Prunes
		res.Stats.Improvements = ex.Improvements
		res.Stats.WarmScore = ex.WarmScore
		if ex.SigStats != nil {
			res.Stats.fillSignature(*ex.SigStats)
		}
		res.Stats.fillEnv(ex.EnvStats)
	case AlgoSignature:
		sig, err := signature.RunEnv(ctx, env, signature.Options{
			Lambda:        opt.lambda(),
			Partial:       opt.Partial,
			MinPartialSig: opt.MinPartialSig,
			ConstSim:      opt.ConstSimilarity,
			Workers:       opt.SigWorkers,
			Scratch:       &ws.sig,
		})
		if err != nil {
			return nil, err
		}
		res.Score = sig.Score
		res.Stopped = sig.Stopped
		res.Stats.fillSignature(sig.Stats)
		res.Stats.fillEnv(env.Stats)
	default:
		return nil, fmt.Errorf("instcmp: unknown algorithm %d", algo)
	}
	res.Stats.SearchTime = time.Since(searchStart)

	explainStart := time.Now()
	ws.matched = res.fillExplanation(env, opt.lambda(), lp.inst, rp.inst, rightPrefix, relNames, ws.matched)
	res.Stats.ExplainTime = time.Since(explainStart)
	res.Elapsed = time.Since(start)
	res.publish()
	return res, nil
}

// workspace is the working memory of one comparison: the environment (its
// pair list, image tables, joint interner and unifier), the signature
// run's scratch, the exact search's, and the explanation's matched flags.
// comparePrepared takes one from the pool and puts it back when it
// returns, so repeated comparisons reuse memory instead of allocating it.
// Each part resets only what a comparison uses, so a workspace grown by a
// large comparison serves a small one at the small one's cost. Nothing a
// Result holds points into a workspace.
type workspace struct {
	env     match.Env
	sig     signature.Scratch
	exact   exact.Scratch
	matched []bool
}

// workspaces pools comparison workspaces. A pool rather than a handle per
// caller: the public API stays as it is, and every entry point (one-shot,
// prepared, lake's workers, the server's handlers) reuses memory alike.
var workspaces = sync.Pool{New: func() any { return newWorkspace() }}

// newWorkspace returns an empty workspace.
func newWorkspace() *workspace {
	ws := new(workspace)
	// The exact search's warm start runs the signature engine; both never
	// run at once, so they share one scratch.
	ws.exact.Sig = &ws.sig
	return ws
}

// preparedVarsOverlap reports whether the two prepared instances share a
// null name; the left side's interner answers membership in O(right nulls).
func preparedVarsOverlap(l, r *Prepared) bool {
	for i := range r.side.Vars {
		if _, shared := l.side.In.LookupFrom(r.side.In, model.ValueID(i)); shared {
			return true
		}
	}
	return false
}

// renameApartPrepared renames the right instance's nulls with a prefix
// making them disjoint from the left's, growing the prefix until no
// collision remains (the same loop one-shot normalization runs), and
// prepares the renamed copy.
func renameApartPrepared(l, r *Prepared) (*Prepared, string, error) {
	prefix := "r·"
	for {
		ren := r.inst.RenameNulls(prefix)
		if overlapsPrepared(l, ren) {
			prefix += "·"
			continue
		}
		rp, err := prepareOwned(ren)
		return rp, prefix, err
	}
}

func overlapsPrepared(l *Prepared, inst *Instance) bool {
	for v := range inst.Vars() {
		if _, shared := l.side.In.Lookup(v); shared {
			return true
		}
	}
	return false
}
