// Produce/commit pipeline for the signature algorithm (DESIGN.md §12): the
// one implementation of each phase — pass scan, rescue, and completion —
// plus the sig-map build each pass probes, which always runs inline. The
// greedy phase is order-sensitive: tryPair's net-gain guard reads
// insertion-time score sums and live degrees, so the set of accepted
// pairs depends on the exact order in which candidates are attempted. The
// pipeline therefore never lets producers touch the match: produce does the
// read-only work (signature hashing, pattern probing, compatible-candidate
// generation) for fixed-size blocks of the scan index, and the calling
// goroutine commits every block's candidates in canonical scan order,
// re-checking the live conditions (saturation, pair dedup, the guard
// itself) in the order Alg. 3/4's loops check them.
//
// Worker invariance rests on two facts. First, candidate generation is
// independent of the match state: signature hashes, pattern lists, and
// CompatibleTuples lists are functions of the coded inputs alone. Second,
// saturation is monotone during a run — degrees only grow, Undo only
// occurs inside a failed tryPair — so producing candidates without
// saturation early-outs is harmless: the committer's live checks skip
// exactly the candidates a plain greedy loop would have skipped, in the
// same order. Whether a phase fans out to workers or runs inline (fanOut),
// the committed pair sequence, the EnvStats counters, and every score are
// therefore bit-identical (pinned by the regress goldens and
// TestSignatureWorkerInvariance).
package signature

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"instcmp/internal/compat"
	"instcmp/internal/match"
	"instcmp/internal/model"
)

const (
	// minParallelRows gates fan-out: below this many input rows (scan
	// rows, unmatched rescue rows, completion left rows) the fan-out
	// overhead dominates the work being split and the phase runs inline
	// even with Workers > 1.
	minParallelRows = 512
	// scanBlockRows is the produce/commit unit of the pass and completion
	// scans: big enough to amortize channel traffic, small enough that a
	// handful of blocks are always in flight ahead of the committer.
	scanBlockRows = 256
)

// fanOut is the pipeline's one size gate: the worker count for a phase over
// rows input rows — the run's workers at or above minParallelRows, else 1
// (inline).
func (s *runner) fanOut(rows int) int {
	if rows < minParallelRows {
		return 1
	}
	return s.workers
}

// runBlocks drives the ordered produce/commit pipeline over blocks
// b = 0, 1, ..., n-1: commit(b, produce(state, spare, b)) runs on the
// calling goroutine in ascending b. Payloads are recycled: commit must not
// retain one, and produce receives a committed payload (initially *spare)
// to reuse, one of the last being stored back in *spare. With one
// effective worker it runs inline, with no goroutines or channels: produce
// and commit alternate, a single state comes from newState, and each
// produce receives the previous block's payload. Otherwise produce runs on
// workers goroutines, each with its own state, taking a committed payload
// when one is free and the zero value otherwise; at most 2×workers blocks
// are in flight at once, bounding payload memory, and workers claim blocks
// in ascending order, so the lowest uncommitted block is always being
// produced and the committer never stalls behind an unclaimed block. It
// returns the number of fanned-out blocks: 0 inline, n otherwise.
func runBlocks[S, T any](workers, n int, spare *T, newState func() S, produce func(S, T, int) T, commit func(int, T)) int {
	workers = min(workers, n)
	if workers <= 1 {
		if n > 0 {
			state := newState()
			for b := 0; b < n; b++ {
				*spare = produce(state, *spare, b)
				commit(b, *spare)
			}
		}
		return 0
	}
	inflight := min(2*workers, n)
	results := make([]chan T, n)
	for i := range results {
		results[i] = make(chan T, 1)
	}
	// tokens carries permission to produce one block; capacity n keeps
	// the committer's release sends non-blocking. Exactly n tokens are
	// issued in total, one per block.
	tokens := make(chan struct{}, n)
	for i := 0; i < inflight; i++ {
		tokens <- struct{}{}
	}
	// free hands committed payloads back to the producers.
	free := make(chan T, inflight)
	free <- *spare
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			for range tokens {
				b := int(next.Add(1)) - 1
				if b >= n {
					return
				}
				var t T
				select {
				case t = <-free:
				default:
				}
				results[b] <- produce(state, t, b)
			}
		}()
	}
	released := inflight
	for b := 0; b < n; b++ {
		t := <-results[b]
		commit(b, t)
		select {
		case free <- t:
		default:
		}
		if released < n {
			tokens <- struct{}{}
			released++
		}
	}
	// Every result has been received, so every produce call has finished
	// and the workers are idle on the token channel; closing it lets them
	// exit.
	close(tokens)
	wg.Wait()
	select {
	case *spare = <-free:
	default:
	}
	return n
}

// noState is the per-worker state of phases whose producers need none.
func noState() struct{} { return struct{}{} }

// sigItem is one record of a sigTable fill: a row's signature hash under
// one pattern, plus the row position. slot is fill's scratch: the item's
// table slot, recorded by the counting pass for the placement pass.
type sigItem struct {
	h        uint64
	ti, slot int32
}

// buildSigMap indexes every row of the coded relation into the runner's
// sigTable and returns it with the distinct indexed patterns, largest
// first. In the default mode each row is indexed once, under its maximal
// signature (Alg. 4 line 3). In partial mode each row is indexed under
// every signature with at least MinPartialSig attributes (Sec. 6.3).
//
// The build runs inline at every worker count: hashing is a small share of
// a pass, and fanning it out measured no faster at 2 CPUs (DESIGN.md §12).
// Items are recorded in row order, so bucket contents are in row order, and
// sortPatterns is a total order over distinct masks, so the pattern list
// does not depend on discovery order. Cancellation is polled every
// cancelPollInterval subsets hashed, so partial mode's enumeration of
// 2^|ground| subsets per row answers it too; a canceled build leaves the
// table empty.
func (s *runner) buildSigMap(crel *model.CodedRelation) (*sigTable, []uint64) {
	rows := crel.Rows()
	partial, minSig := s.opt.Partial, max(s.opt.MinPartialSig, 1)
	// The default mode records exactly one item per row.
	items := slices.Grow(s.items[:0], rows)
	if s.seen == nil {
		s.seen = map[uint64]bool{}
	}
	for _, pm := range s.patterns {
		delete(s.seen, pm)
	}
	s.patterns = s.patterns[:0]
	hashed := 0
scan:
	for ti := 0; ti < rows; ti++ {
		row, ground := crel.Row(ti), crel.Masks[ti]
		hg := sigHash(row, ground)
		for sub := ground; ; sub = (sub - 1) & ground {
			if hashed%cancelPollInterval == 0 && s.canceled() {
				break scan
			}
			hashed++
			if !partial || bits.OnesCount64(sub) >= minSig {
				if !s.seen[sub] {
					s.seen[sub] = true
					s.patterns = append(s.patterns, sub)
				}
				items = append(items, sigItem{h: subHash(row, ground, hg, sub), ti: int32(ti)})
			}
			if !partial || sub == 0 {
				break
			}
		}
	}
	s.items = items
	s.sigs.fill(s.ctx, items)
	sortPatterns(s.patterns)
	return &s.sigs, s.patterns
}

// candBlock is one produced unit of a pass or completion scan: for each
// scanned row of the block, its candidates on the other side, flattened.
type candBlock struct {
	ncands []int32 // per scanned row: how many candidates follow
	cands  []int32
}

// pass runs FindSigMatches (Alg. 4) for one relation in one direction.
// mapLeft selects which side the signature map is built over: true indexes
// the left relation and scans the right (Alg. 3 line 3), false the reverse
// (line 4). Producers probe the (immutable) signature map for each scan
// row's eligible patterns, progressively smaller attribute subsets (Alg. 4
// line 6, via the null-pattern optimization), and flatten the rows of the
// buckets hit into the scan row's candidate list; the committer walks the
// lists in scan order (commitCands).
//
// The candidate lists depend only on the coded inputs, so the
// perfect-pairs round records them, per relation and direction, as it
// commits them, and the general round replays the record instead of
// building the map and probing it again. A canceled pass drops its record;
// the run stops before the general round.
func (s *runner) pass(ri int, mapLeft bool) {
	mapCode, scanCode := s.env.LCode[ri], s.env.RCode[ri]
	dir := 0
	if !mapLeft {
		mapCode, scanCode = scanCode, mapCode
		dir = 1
	}
	var record *candBlock
	if len(s.replay) > 0 {
		record = &s.replay[2*ri+dir]
		if !s.perfectOnly {
			s.commitCands(ri, !mapLeft, *record, func(i int) int { return i })
			return
		}
	}
	sigs, patterns := s.buildSigMap(mapCode)
	rows := scanCode.Rows()
	if record != nil {
		// Most scan rows have one candidate; size for that up front.
		record.ncands = slices.Grow(record.ncands[:0], rows)
		record.cands = slices.Grow(record.cands[:0], rows)
	}
	nBlocks := (rows + scanBlockRows - 1) / scanBlockRows
	ctx := s.ctx
	produce := func(_ struct{}, cb candBlock, b int) candBlock {
		start := b * scanBlockRows
		end := min(start+scanBlockRows, rows)
		cb.ncands = slices.Grow(cb.ncands[:0], end-start)[:end-start]
		clear(cb.ncands)
		cb.cands = slices.Grow(cb.cands[:0], end-start)
		for si := start; si < end; si++ {
			if (si-start)%cancelPollInterval == 0 && ctx.Err() != nil {
				// Unproduced rows keep zero candidate counts; the
				// committer bails on its own poll before using them.
				break
			}
			row, ground := scanCode.Row(si), scanCode.Masks[si]
			hg := sigHash(row, ground)
			for _, pm := range patterns {
				if pm&^ground != 0 {
					continue // pattern uses an attribute that is null in t
				}
				bkt := sigs.bucket(subHash(row, ground, hg, pm))
				cb.cands = append(cb.cands, bkt...)
				cb.ncands[si-start] += int32(len(bkt))
			}
		}
		return cb
	}
	commit := func(b int, cb candBlock) {
		if record != nil {
			record.ncands = append(record.ncands, cb.ncands...)
			record.cands = append(record.cands, cb.cands...)
		}
		base := b * scanBlockRows
		s.commitCands(ri, !mapLeft, cb, func(i int) int { return base + i })
	}
	s.scanBlocks += runBlocks(s.fanOut(rows), nBlocks, &s.scanSpare, noState, produce, commit)
	if record != nil && s.canceled() {
		record.ncands, record.cands = record.ncands[:0], record.cands[:0]
	}
}

// commitCands is the committer's greedy loop over produced candidates,
// shared by the passes (Alg. 4 lines 6-11) and completion (Alg. 3 lines
// 7-13). Row i of cb is the scanned tuple at(i) of relation ri, on the left
// side if scanLeft and on the right otherwise; its candidates are tuples on
// the other side, taken in order: saturated ones are skipped, the rest are
// tried, and the row ends as soon as the scanned tuple saturates ("goto
// next tuple").
func (s *runner) commitCands(ri int, scanLeft bool, cb candBlock, at func(int) int) {
	scanSaturated, candSaturated := s.rightSaturated, s.leftSaturated
	if scanLeft {
		scanSaturated, candSaturated = s.leftSaturated, s.rightSaturated
	}
	k := 0
	for i, n := range cb.ncands {
		if i%cancelPollInterval == 0 && s.canceled() {
			return
		}
		x := match.Ref{Rel: ri, Idx: at(i)}
		row := cb.cands[k : k+int(n)]
		k += int(n)
		for _, c := range row {
			y := match.Ref{Rel: ri, Idx: int(c)}
			if candSaturated(y) {
				continue
			}
			p := match.Pair{L: y, R: x}
			if scanLeft {
				p = match.Pair{L: x, R: y}
			}
			if s.tryPair(p) && scanSaturated(x) {
				break
			}
		}
	}
}

// maxRescueMasks caps the number of shared-attribute masks the rescue round
// enumerates; anything beyond falls through to the completion step.
const maxRescueMasks = 256

// rescueTask is one produced unit of a rescue round (one mask): the
// signature table over the mask-eligible unmatched left rows, whose runs
// are in leftUn order, plus the hash probes of the mask-eligible unmatched
// right rows in rightUn order (ti holds the right row index).
type rescueTask struct {
	entries []sigItem
	table   sigTable
	probes  []sigItem
}

// rescue probes tuples that remain unmatched after both maximal-signature
// passes. A pair whose tuples hold nulls at different positions (left null
// at A, right null at B) is invisible to maximal signatures: neither side's
// constant set contains the other's. Such pairs still share the signature
// on the intersection of their ground attributes (Property 2), so this
// round enumerates the distinct ground-mask intersections of the unmatched
// tuples — a small set in practice — and hash-joins on those
// sub-signatures, one produce/commit unit per mask. Pairs sharing no
// constant attribute at all are left to the completion step.
//
// Producers do not filter saturated left rows out of the index —
// saturation moves while earlier masks commit — so the committer checks it
// at probe time; saturated entries are skipped there and change nothing
// else.
//
// A pair (l, r) is tried only at its own mask, M = ground(l) & ground(r),
// although its rows may hash equal at sub-masks of M too. Against trying
// each pair at the first mask where it hashes equal, this drops only calls
// that are rejected, so the accepted pairs and their order are unchanged
// (DESIGN.md §12):
//   - Masks run largest first, so M precedes its sub-masks, and the
//     maxRescueMasks cut drops M together with all of them.
//   - A pair that agrees on all of M meets M first; there it is tried, or
//     skipped for a saturation that persists through every later mask.
//   - A pair that conflicts on a shared constant is never accepted. Without
//     Partial, TryAddPair rejects it. With Partial, TryAddPartialPair
//     accepts it only when the rows share at least MinPartialSig constants;
//     then the rows share a partial signature, a pass tried the pair while
//     both rows were unmatched and accepted it, and the rows are not in the
//     rescue at all.
func (s *runner) rescue(ri int) {
	lcode, rcode := s.env.LCode[ri], s.env.RCode[ri]

	// unmatched lists a side's unmatched rows with their ground-mask
	// hashes, from which each mask's sub-signature hash is derived.
	unmatched := func(out []sigItem, crel *model.CodedRelation, left bool) []sigItem {
		out = out[:0]
		for ti := 0; ti < crel.Rows(); ti++ {
			if ti%cancelPollInterval == 0 && s.canceled() {
				return out[:0]
			}
			ref := match.Ref{Rel: ri, Idx: ti}
			var deg int
			if left {
				deg = s.env.LeftDegree(ref)
			} else {
				deg = s.env.RightDegree(ref)
			}
			if deg == 0 {
				out = append(out, sigItem{h: sigHash(crel.Row(ti), crel.Masks[ti]), ti: int32(ti)})
			}
		}
		return out
	}
	s.leftUn, s.rightUn = unmatched(s.leftUn, lcode, true), unmatched(s.rightUn, rcode, false)
	leftUn, rightUn := s.leftUn, s.rightUn
	if len(leftUn) == 0 || len(rightUn) == 0 {
		return
	}

	// distinct appends m to out on its first sight; forget empties the
	// dedup set again, at the cost of what it holds.
	if s.maskSeen == nil {
		s.maskSeen = map[uint64]bool{}
	}
	distinct := func(out []uint64, m uint64) []uint64 {
		if !s.maskSeen[m] {
			s.maskSeen[m] = true
			out = append(out, m)
		}
		return out
	}
	forget := func(ms []uint64) {
		for _, m := range ms {
			delete(s.maskSeen, m)
		}
	}
	groundMasks := func(out []uint64, crel *model.CodedRelation, un []sigItem) []uint64 {
		out = out[:0]
		for _, u := range un {
			out = distinct(out, crel.Masks[u.ti])
		}
		forget(out)
		return out
	}
	s.lMasks, s.rMasks = groundMasks(s.lMasks, lcode, leftUn), groundMasks(s.rMasks, rcode, rightUn)
	masks := s.masks[:0]
	for _, gl := range s.lMasks {
		// The mask product is quadratic in distinct null patterns; bail
		// out between left masks so a cancel is answered promptly.
		if s.canceled() {
			break
		}
		for _, gr := range s.rMasks {
			if m := gl & gr; m != 0 {
				masks = distinct(masks, m)
			}
		}
	}
	forget(masks)
	s.masks = masks
	if s.canceled() {
		return
	}
	sortPatterns(masks)
	if len(masks) > maxRescueMasks {
		masks = masks[:maxRescueMasks]
	}

	ctx := s.ctx
	// eligible appends the mask-m sub-signature items of the rows of un
	// whose ground covers m.
	eligible := func(items []sigItem, crel *model.CodedRelation, un []sigItem, m uint64) []sigItem {
		for n, u := range un {
			if n%cancelPollInterval == 0 && ctx.Err() != nil {
				break // fill and commit see the cancel too
			}
			if ground := crel.Masks[u.ti]; ground&m == m {
				items = append(items, sigItem{h: subHash(crel.Row(int(u.ti)), ground, u.h, m), ti: u.ti})
			}
		}
		return items
	}
	produce := func(_ struct{}, t rescueTask, mi int) rescueTask {
		t.entries = eligible(t.entries[:0], lcode, leftUn, masks[mi])
		// fill leaves the table empty if the cancel cut entries short.
		t.table.fill(ctx, t.entries)
		t.probes = eligible(t.probes[:0], rcode, rightUn, masks[mi])
		return t
	}
	commit := func(mi int, t rescueTask) {
		m := masks[mi]
		for n, pr := range t.probes {
			if n%cancelPollInterval == 0 && s.canceled() {
				return
			}
			ci := int(pr.ti)
			rref := match.Ref{Rel: ri, Idx: ci}
			if s.rightSaturated(rref) {
				continue
			}
			rmask := rcode.Masks[ci]
			for _, li32 := range t.table.bucket(pr.h) {
				li := int(li32)
				lref := match.Ref{Rel: ri, Idx: li}
				// Each pair is tried only at its own mask.
				if lcode.Masks[li]&rmask != m || s.leftSaturated(lref) {
					continue
				}
				if s.tryPair(match.Pair{L: lref, R: rref}) && s.rightSaturated(rref) {
					break
				}
			}
		}
	}
	// The passes' signature table is dead until the next pass refills it,
	// so the rescue's first payload reuses its buffers and hands them back.
	s.rescueSpare.table = s.sigs
	s.rescueTasks += runBlocks(s.fanOut(len(leftUn)+len(rightUn)), len(masks), &s.rescueSpare, noState, produce, commit)
	s.sigs, s.rescueSpare.table = s.rescueSpare.table, sigTable{}
}

// complete runs the final step of Alg. 3 (lines 5-13): candidate pairs from
// CompatibleTuples, confirmed greedily against the current match. Candidate
// lists are fully static — the coded index is built once per relation from
// a snapshot of the unsaturated right rows, and pairwise compatibility does
// not depend on the match state — so producers compute them with private
// Probers and the committer runs the confirmation loop (live
// right-saturation filter, tryPair, left-saturation early-out) in left
// order.
func (s *runner) complete() {
	for ri := range s.env.LRels {
		if s.canceled() {
			return
		}
		lcode, rcode := s.env.LCode[ri], s.env.RCode[ri]
		// Injective sides only need their unmatched tuples considered;
		// non-injective sides stay fully in play (Cases 1-4, Sec. 6.2).
		leftIdxs, rightIdxs := s.leftIdxs[:0], s.rightIdxs[:0]
		for ti := 0; ti < lcode.Rows(); ti++ {
			if !s.leftSaturated(match.Ref{Rel: ri, Idx: ti}) {
				leftIdxs = append(leftIdxs, ti)
			}
		}
		for ti := 0; ti < rcode.Rows(); ti++ {
			if !s.rightSaturated(match.Ref{Rel: ri, Idx: ti}) {
				rightIdxs = append(rightIdxs, ti)
			}
		}
		s.leftIdxs, s.rightIdxs = leftIdxs, rightIdxs
		if len(leftIdxs) == 0 || len(rightIdxs) == 0 {
			continue
		}
		ix := &s.index
		ix.Reset(rcode, rightIdxs, s.env.In)
		nBlocks := (len(leftIdxs) + scanBlockRows - 1) / scanBlockRows
		ctx := s.ctx
		// The first producer to start probes with the Scratch's prober,
		// any other with a fresh one.
		var claimed atomic.Bool
		newProber := func() *compat.Prober {
			if claimed.Swap(true) {
				return ix.NewProber()
			}
			s.prober.Reset(ix)
			return &s.prober
		}
		produce := func(p *compat.Prober, bb candBlock, b int) candBlock {
			start := b * scanBlockRows
			end := min(start+scanBlockRows, len(leftIdxs))
			bb.ncands = slices.Grow(bb.ncands[:0], end-start)[:end-start]
			clear(bb.ncands)
			bb.cands = bb.cands[:0]
			for n := start; n < end; n++ {
				if (n-start)%cancelPollInterval == 0 && ctx.Err() != nil {
					break
				}
				li := leftIdxs[n]
				cs := p.Candidates(lcode.Row(li), lcode.Masks[li])
				bb.ncands[n-start] = int32(len(cs))
				for _, ci := range cs {
					bb.cands = append(bb.cands, int32(ci))
				}
			}
			return bb
		}
		commit := func(b int, bb candBlock) {
			base := b * scanBlockRows
			s.commitCands(ri, true, bb, func(i int) int { return leftIdxs[base+i] })
		}
		s.completeBlocks += runBlocks(s.fanOut(len(leftIdxs)), nBlocks, &s.completeSpare, newProber, produce, commit)
	}
}
