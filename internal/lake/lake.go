// Package lake implements the data-lake discovery application of the
// paper's introduction: given a user-provided example instance, find and
// rank the datasets of a lake by instance similarity — without relying on
// shared keys, and tolerating labeled nulls in either side.
//
// Ranking every candidate with a full instance match would be wasteful, so
// candidates first pass two cheap filters: schema compatibility (attribute
// overlap after alignment) and a constant-overlap prefilter (Jaccard of
// value samples), mirroring how the signature algorithm itself prunes by
// shared constants. Only survivors get a full signature comparison. The
// prefilter reads the prepared coding (instcmp.Prepared.ValueOverlap), so
// every candidate is prepared, pruned or not.
package lake

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"instcmp"
	"instcmp/internal/score"
)

// vars exports cumulative ranking counters for long-running processes
// (expvar key "instcmp.lake"): rankings, candidates, pruned, timed_out.
var vars = expvar.NewMap("instcmp.lake")

// Options tunes the search.
type Options struct {
	// MinValueOverlap is the constant-overlap prefilter threshold in
	// [0, 1]; candidates below it are reported with Pruned = true and
	// score 0. Zero disables the prefilter.
	MinValueOverlap float64
	// MaxSample caps the number of distinct constants sampled per
	// instance for the prefilter (0 = 1000).
	MaxSample int
	// Lambda is the scoring penalty (0 = default; use ExplicitZeroLambda
	// to request λ = 0).
	Lambda float64
	// ExplicitZeroLambda forces λ = 0: nulls matched to constants score
	// nothing. Without it, Lambda = 0 silently means the default penalty.
	ExplicitZeroLambda bool
	// Mode restricts tuple mappings (zero value = n-to-m, the right
	// default for discovery: candidate tables may merge or split rows).
	Mode instcmp.Mode
	// Workers runs full comparisons concurrently (0 or 1 = sequential).
	// Comparisons are independent — prepared instances are immutable and
	// comparing never mutates them, so many comparisons may share the
	// prepared example at once — and candidates therefore parallelize
	// trivially, and the ranking is identical for every worker count
	// (results land in per-candidate slots and are sorted with a
	// deterministic comparator). cmd/lakefind defaults to GOMAXPROCS.
	Workers int
	// SigWorkers is the signature pipeline's worker count inside each
	// candidate comparison (1 = sequential). 0 keeps candidates sequential
	// too: the ranking already fans out across candidates, and nesting
	// per-comparison workers on top oversubscribes the machine. Set it
	// explicitly for lakes with few large datasets, where per-comparison
	// parallelism is the only parallelism available. Scores are identical
	// for every value.
	SigWorkers int
	// PerCandidateTimeout bounds each candidate's full comparison (0 = no
	// bound). The comparison problem is NP-hard and even the polynomial
	// signature algorithm can be slow on pathological candidates, so
	// without a per-candidate budget one bad dataset stalls the whole
	// ranking. A candidate that exceeds its budget degrades to its
	// prefilter overlap: TimedOut = true, score 0, ranked with the pruned
	// candidates instead of failing the ranking.
	PerCandidateTimeout time.Duration
	// TopK is how many top candidates the caller cares about when ranking
	// through a sketch index (RankIndexedContext); together with
	// MinShortlist it sizes the shortlist that receives real comparisons as
	// max(4*TopK, MinShortlist). 0 means DefaultTopK. Plain Rank /
	// RankPreparedContext ignore it (they compare everything).
	TopK int
	// MinShortlist floors the indexed shortlist size (0 = DefaultMinShortlist).
	MinShortlist int
	// DiscoverMapping compares each candidate under a discovered attribute
	// mapping when its schema disagrees with the example's (renamed or
	// reordered columns — the common drift across a heterogeneous lake),
	// instead of padding every non-identical column pair apart. Results
	// carry the per-candidate mapping confidence.
	DiscoverMapping bool
}

// ErrInvalidOptions is wrapped by the error a ranking returns for bad Options.
var ErrInvalidOptions = errors.New("lake: invalid options")

// validate rejects options no ranking can honour: negative sizes and
// budgets, and a prefilter threshold outside [0, 1].
func (o Options) validate() error {
	switch {
	case math.IsNaN(o.MinValueOverlap) || o.MinValueOverlap < 0 || o.MinValueOverlap > 1:
		return fmt.Errorf("%w: MinValueOverlap %v is outside [0, 1]", ErrInvalidOptions, o.MinValueOverlap)
	case o.MaxSample < 0, o.TopK < 0, o.MinShortlist < 0, o.PerCandidateTimeout < 0:
		return fmt.Errorf("%w: MaxSample, TopK, MinShortlist and PerCandidateTimeout must not be negative", ErrInvalidOptions)
	}
	return nil
}

// Indexed shortlist sizing defaults: the shortlist is max(4*TopK,
// MinShortlist) candidates, so a top-10 query compares at least 64
// candidates — enough slack that the MinHash estimate (standard error ~0.044
// at K=128) would have to misrank a true top-10 candidate past 54 closer
// ones to break recall.
const (
	DefaultTopK         = 10
	DefaultMinShortlist = 64
)

// Result is one ranked candidate.
type Result struct {
	Name string
	// Score is the instance similarity against the example (0 when
	// pruned or timed out).
	Score float64
	// Overlap is the prefilter's constant-overlap estimate.
	Overlap float64
	// Pruned reports that the candidate never reached full comparison.
	Pruned bool
	// TimedOut reports that the candidate's comparison exceeded
	// Options.PerCandidateTimeout and was degraded to its prefilter
	// overlap.
	TimedOut bool
	// Mapping is the discovered schema mapping the comparison ran under
	// (Options.DiscoverMapping with a drifted candidate), nil otherwise.
	Mapping *instcmp.SchemaMapping
	// Stats is the candidate's comparison record (nil when pruned).
	Stats *instcmp.ComparisonStats
}

// Candidate names one dataset of the lake.
type Candidate struct {
	Name     string
	Instance *instcmp.Instance
}

// PreparedCandidate names one dataset of the lake held in prepared form, as
// a long-lived registry (e.g. instcmp-serve) keeps it: the candidate's
// normalization and coding are paid once at registration, not once per
// ranking.
type PreparedCandidate struct {
	Name     string
	Prepared *instcmp.Prepared
}

// candidateSource is the internal shape both entry points rank over; Rank's
// prepare runs inside the worker that ranks the candidate.
type candidateSource struct {
	name    string
	prepare func() (*instcmp.Prepared, error)
}

// singleRelName returns the example's relation name when it has exactly one
// relation — the name single-table candidates are aligned to — and ""
// otherwise (multi-relation names are meaningful and never rewritten).
func singleRelName(example *instcmp.Instance) string {
	if rels := example.Relations(); len(rels) == 1 {
		return rels[0].Name
	}
	return ""
}

// Rank scores every candidate against the example and returns them ranked
// best first (pruned and timed-out candidates last, by overlap). The
// context covers the whole ranking: when ctx is canceled the ranking
// aborts and returns ctx.Err(). Independently, Options.PerCandidateTimeout
// budgets each candidate's own comparison; exceeding it degrades that one
// candidate instead of failing the ranking.
//
// The example is prepared once, up front, and that prepared form is reused
// across all candidates, so the example's normalization and coding cost is
// paid once per ranking rather than once per comparison. Each candidate is
// prepared by the worker that ranks it, before the prefilter reads it.
func Rank(ctx context.Context, example *instcmp.Instance, lake []Candidate, opt Options) ([]Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	exPrep, err := instcmp.Prepare(example)
	if err != nil {
		return nil, err
	}
	wantName := singleRelName(example)
	srcs := make([]candidateSource, len(lake))
	for i, cand := range lake {
		srcs[i] = candidateSource{
			name: cand.Name,
			prepare: func() (*instcmp.Prepared, error) {
				p, err := instcmp.Prepare(cand.Instance)
				if err != nil || wantName == "" {
					return p, err
				}
				return p.WithRelationName(wantName), nil
			},
		}
	}
	return rankSources(ctx, exPrep, srcs, opt)
}

// RankPreparedContext is Rank over a lake of prepared candidates and
// a prepared example: rankings are identical (same scores, same order, same
// degradation rules), but no instance is re-normalized or re-coded —
// single-relation name alignment is a constant-cost view over the
// candidate's prepared state. This is the entry point for resident
// registries serving many rankings over the same lake.
func RankPreparedContext(ctx context.Context, example *instcmp.Prepared, lake []PreparedCandidate, opt Options) ([]Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	srcs, err := preparedSources(example, lake)
	if err != nil {
		return nil, err
	}
	return rankSources(ctx, example, srcs, opt)
}

// preparedSources validates a prepared lake and converts it to the internal
// candidate shape, aligning single-relation names to the example's. Shared
// by the full-scan and indexed prepared entry points.
func preparedSources(example *instcmp.Prepared, lake []PreparedCandidate) ([]candidateSource, error) {
	if example == nil {
		return nil, fmt.Errorf("lake: RankPrepared requires a non-nil prepared example")
	}
	wantName := singleRelName(example.Instance())
	srcs := make([]candidateSource, len(lake))
	for i, cand := range lake {
		if cand.Prepared == nil {
			return nil, fmt.Errorf("lake: candidate %q has no prepared instance", cand.Name)
		}
		p := cand.Prepared
		if wantName != "" {
			p = p.WithRelationName(wantName)
		}
		srcs[i] = candidateSource{
			name:    cand.Name,
			prepare: func() (*instcmp.Prepared, error) { return p, nil },
		}
	}
	return srcs, nil
}

// rankSources runs the ranking proper: prefilter, budgeted full
// comparisons, deterministic ordering.
func rankSources(ctx context.Context, example *instcmp.Prepared, lake []candidateSource, opt Options) ([]Result, error) {
	if opt.MaxSample == 0 {
		opt.MaxSample = 1000
	}
	// 0 means "sequential inside each comparison" here, unlike
	// instcmp.Options.SigWorkers where 0 means GOMAXPROCS: candidate-level
	// parallelism is the default way a ranking saturates the machine.
	sigWorkers := opt.SigWorkers
	if sigWorkers == 0 {
		sigWorkers = 1
	}
	out := make([]Result, len(lake))
	errs := make([]error, len(lake))
	rank := func(i int) {
		cand := lake[i]
		candPrep, err := cand.prepare()
		if err != nil {
			errs[i] = err
			return
		}
		r := Result{Name: cand.name, Overlap: example.ValueOverlap(candPrep, opt.MaxSample)}
		if opt.MinValueOverlap > 0 && r.Overlap < opt.MinValueOverlap {
			r.Pruned = true
			out[i] = r
			return
		}
		cctx := ctx
		if opt.PerCandidateTimeout > 0 {
			var cancel context.CancelFunc
			cctx, cancel = context.WithTimeout(ctx, opt.PerCandidateTimeout)
			defer cancel()
		}
		res, err := instcmp.ComparePreparedContext(cctx, example, candPrep, &instcmp.Options{
			Mode:               opt.Mode,
			Lambda:             opt.Lambda,
			ExplicitZeroLambda: opt.ExplicitZeroLambda,
			Algorithm:          instcmp.AlgoSignature,
			AlignSchemas:       true,
			DiscoverMapping:    opt.DiscoverMapping,
			SigWorkers:         sigWorkers,
		})
		if err != nil {
			errs[i] = err
			return
		}
		r.Stats = &res.Stats
		r.Mapping = res.Mapping
		if res.Stopped != "" {
			if ctx.Err() != nil {
				// The overall context was canceled: fail the
				// ranking, not the candidate.
				errs[i] = ctx.Err()
				return
			}
			// The candidate blew its own budget: degrade it to the
			// prefilter overlap, like a pruned candidate but marked
			// so callers can tell the difference.
			r.TimedOut = true
			out[i] = r
			return
		}
		r.Score = res.Score
		out[i] = r
	}
	// Rank fails as a whole when any comparison fails, so once an error is
	// recorded there is no point starting further comparisons: workers stop
	// claiming candidates once failed is set or ctx is done. Workers claim
	// candidate indexes from one counter in ascending order, so the claimed
	// candidates form a prefix of the lake, and every claimed candidate runs
	// to completion before the scan below. The scan therefore returns the
	// lowest-index error of that prefix, which is the first error by
	// candidate order: no unclaimed candidate precedes a claimed one (pinned
	// by TestRankReturnsFirstErrorByCandidateOrder). Results computed before
	// the error are still written to their out slots, keeping the
	// (discarded) partial state deterministic.
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(lake) {
				return
			}
			rank(i)
			if errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	if workers := min(opt.Workers, len(lake)); workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	} else {
		work()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sortResults(out)
	vars.Add("rankings", 1)
	vars.Add("candidates", int64(len(out)))
	for _, r := range out {
		if r.Pruned {
			vars.Add("pruned", 1)
		}
		if r.TimedOut {
			vars.Add("timed_out", 1)
		}
	}
	return out, nil
}

// sortResults pins the one deterministic ranking order every path —
// sequential, parallel, indexed — must agree on: scored candidates first by
// (score desc, overlap desc, name asc), degraded candidates (pruned or timed
// out) last by (overlap desc, name asc). Before the name tie-break,
// equal-score candidates kept their input order only by accident of the
// sequential fold, which the indexed path (which reorders its input around
// the shortlist) would have broken.
func sortResults(out []Result) {
	sort.SliceStable(out, func(i, j int) bool { return resultLess(&out[i], &out[j]) })
}

// resultLess is the ranking comparator sortResults and the indexed path's
// merge share.
func resultLess(a, b *Result) bool {
	if da, db := a.Pruned || a.TimedOut, b.Pruned || b.TimedOut; da != db {
		return !da
	}
	// Bit-level inequality: the ranking must not merge scores the golden
	// tests distinguish (floatscore bans raw float !=).
	if !score.SameScore(a.Score, b.Score) {
		return a.Score > b.Score
	}
	if !score.SameScore(a.Overlap, b.Overlap) {
		return a.Overlap > b.Overlap
	}
	return a.Name < b.Name
}
