package signature

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"instcmp/internal/model"
)

// randomChunks draws a sigTable fill input: up to maxChunks chunks (some
// empty) of items whose hashes come from a small pool, so runs are long,
// and whose low bits often coincide, so probe chains are long. Hash 0 is
// always in the pool.
func randomChunks(rng *rand.Rand, maxChunks int) ([][]sigItem, []uint64) {
	pool := []uint64{0}
	for i := rng.Intn(12); i > 0; i-- {
		h := rng.Uint64()
		if rng.Intn(2) == 0 {
			h <<= 40 // low bits zero: every such hash starts at slot 0
		}
		pool = append(pool, h)
	}
	chunks := make([][]sigItem, rng.Intn(maxChunks+1))
	ti := int32(0)
	for c := range chunks {
		n := rng.Intn(40)
		if rng.Intn(4) == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			h := pool[0]
			if rng.Intn(3) != 0 {
				h = pool[rng.Intn(len(pool))]
			}
			chunks[c] = append(chunks[c], sigItem{h: h, ti: ti})
			ti += int32(1 + rng.Intn(3))
		}
	}
	return chunks, pool
}

// mapIndex is the reference index: rows appended per hash in item order.
func mapIndex(chunks [][]sigItem) map[uint64][]int32 {
	ref := map[uint64][]int32{}
	for _, items := range chunks {
		for _, it := range items {
			ref[it.h] = append(ref[it.h], it.ti)
		}
	}
	return ref
}

// TestSigTableMatchesMapIndex pins sigTable against a map index built by
// appending in item order: every present hash returns the same rows in the
// same order, and absent hashes return nothing. One table is reused across
// fills, as the runner reuses its tables.
func TestSigTableMatchesMapIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab sigTable
	for iter := 0; iter < 500; iter++ {
		chunks, pool := randomChunks(rng, 6)
		tab.fill(context.Background(), slices.Concat(chunks...))
		ref := mapIndex(chunks)
		probes := append(slices.Clone(pool), rng.Uint64(), rng.Uint64()<<40, 1<<40)
		for _, h := range probes {
			got, want := tab.bucket(h), ref[h]
			if !slices.Equal(got, want) {
				t.Fatalf("iter %d: bucket(%#x) = %v, map index %v", iter, h, got, want)
			}
		}
		if n := len(tab.slots); n&(n-1) != 0 || n < 2*len(ref) {
			t.Fatalf("iter %d: %d slots for %d hashes: not a power of two at load <= 1/2", iter, n, len(ref))
		}
	}
}

// countdownCtx reports cancellation from its n-th Err call on.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSigTableCanceledFill cancels fills at every poll: the table must come
// out either complete or empty, never with runs pointing at unplaced or
// stale rows, even when it held a larger index before. An empty table's
// filter is clear, so it turns away every probe.
func TestSigTableCanceledFill(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tab sigTable
	for iter := 0; iter < 200; iter++ {
		chunks, pool := randomChunks(rng, 8)
		ref := mapIndex(chunks)
		for polls := int64(0); ; polls++ {
			// A stale index with other rows under the same hashes.
			stale := [][]sigItem{{{h: pool[0], ti: 1 << 20}, {h: pool[len(pool)-1], ti: 1 << 21}}}
			tab.fill(context.Background(), stale[0])
			ctx := &countdownCtx{Context: context.Background()}
			ctx.n.Store(polls)
			tab.fill(ctx, slices.Concat(chunks...))
			complete := ctx.n.Load() >= 0
			for _, h := range pool {
				got := tab.bucket(h)
				if complete && !slices.Equal(got, ref[h]) {
					t.Fatalf("iter %d: uncanceled fill: bucket(%#x) = %v, want %v", iter, h, got, ref[h])
				}
				if !complete && (len(got) != 0 || tab.mayHold(h)) {
					t.Fatalf("iter %d: fill canceled at poll %d: bucket(%#x) = %v, want empty and filtered", iter, polls, h, got)
				}
			}
			if n := setFilterBits(&tab); !complete && n != 0 {
				t.Fatalf("iter %d: fill canceled at poll %d left %d filter bits set", iter, polls, n)
			}
			if complete {
				break
			}
		}
	}
}

// TestSigTableCanceledBuild builds a signature map under a canceled context
// after a complete build of a larger relation: every probe of the result
// must stay inside the smaller relation.
func TestSigTableCanceledBuild(t *testing.T) {
	mk := func(rows int) *model.CodedRelation {
		vals := make([][]model.Value, rows)
		for i := range vals {
			vals[i] = []model.Value{c(model.Constf("a%d", i%7).Raw()), c(model.Constf("b%d", i%5).Raw()), n(model.Nullf("N%d", i).Raw())}
		}
		inst := build(vals)
		return model.NewInterner(0).Code(inst.Relations()[0])
	}
	big, small := mk(3000), mk(40)
	for _, partial := range []bool{false, true} {
		s := &runner{ctx: context.Background(), opt: Options{Partial: partial}, workers: 2}
		s.buildSigMap(big)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.ctx = ctx
		sigs, patterns := s.buildSigMap(small)
		for ti := 0; ti < small.Rows(); ti++ {
			row, ground := small.Row(ti), small.Masks[ti]
			for _, pm := range patterns {
				if pm&^ground != 0 {
					continue
				}
				for _, mi := range sigs.bucket(sigHash(row, pm)) {
					if int(mi) >= small.Rows() {
						t.Fatalf("partial=%v: canceled build returned row %d of a %d-row relation", partial, mi, small.Rows())
					}
				}
			}
		}
	}
}

// randomCoded draws a coded relation of the given size and arity whose
// cells are nulls with probability nullPct/100 and otherwise constants from
// a pool of three per attribute, so signatures repeat and buckets are long.
func randomCoded(rng *rand.Rand, rows, arity, nullPct int) *model.CodedRelation {
	in := model.NewInstance()
	attrs := make([]string, arity)
	for a := range attrs {
		attrs[a] = fmt.Sprintf("a%d", a)
	}
	in.AddRelation("R", attrs...)
	for ti := 0; ti < rows; ti++ {
		row := make([]model.Value, arity)
		for a := range row {
			if rng.Intn(100) < nullPct {
				row[a] = n(fmt.Sprintf("N%d_%d", ti, a))
			} else {
				row[a] = c(fmt.Sprintf("v%d", rng.Intn(3)))
			}
		}
		in.Append("R", row...)
	}
	return model.NewInterner(0).Code(in.Relations()[0])
}

// TestBuildSigMapMatchesReference pins buildSigMap against a map-built
// reference on random relations, in the default mode and in partial mode
// with MinPartialSig 1-3: the pattern list is the distinct eligible masks
// (each row's ground mask; in partial mode every sub-mask of it with at
// least MinPartialSig attributes), largest first, ties by value, and
// bucket(sigHash(row, m)) lists, in row order, every row indexed under the
// same hash. One runner per mode is reused across builds of different
// sizes, as a run reuses it across passes.
func TestBuildSigMapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, opt := range []Options{{}, {Partial: true, MinPartialSig: 1}, {Partial: true, MinPartialSig: 2}, {Partial: true, MinPartialSig: 3}} {
		s := &runner{ctx: context.Background(), opt: opt, workers: 2}
		for iter := 0; iter < 24; iter++ {
			rows := rng.Intn(40)
			if iter%4 == 0 {
				rows = 1000 + rng.Intn(1600)
			}
			crel := randomCoded(rng, rows, 1+rng.Intn(10), []int{0, 10, 50, 90}[rng.Intn(4)])
			ref := map[uint64][]int32{}
			want := map[uint64]bool{}
			for ti := 0; ti < rows; ti++ {
				ground := crel.Masks[ti]
				for sub := ground; ; sub = (sub - 1) & ground {
					if !opt.Partial || bits.OnesCount64(sub) >= opt.MinPartialSig {
						want[sub] = true
						h := sigHash(crel.Row(ti), sub)
						ref[h] = append(ref[h], int32(ti))
					}
					if !opt.Partial || sub == 0 {
						break
					}
				}
			}
			sigs, patterns := s.buildSigMap(crel)
			if len(patterns) != len(want) {
				t.Fatalf("%+v iter %d: %d patterns %x, want %d distinct eligible masks", opt, iter, len(patterns), patterns, len(want))
			}
			for i, m := range patterns {
				if !want[m] {
					t.Fatalf("%+v iter %d: pattern %#x is no row's eligible mask", opt, iter, m)
				}
				if i > 0 {
					p := patterns[i-1]
					if pc, mc := bits.OnesCount64(p), bits.OnesCount64(m); pc < mc || pc == mc && p >= m {
						t.Fatalf("%+v iter %d: patterns %#x, %#x out of order", opt, iter, p, m)
					}
				}
			}
			for h, want := range ref {
				if got := sigs.bucket(h); !slices.Equal(got, want) {
					t.Fatalf("%+v iter %d: bucket(%#x) = %v, want %v", opt, iter, h, got, want)
				}
			}
			for i := 0; i < 8; i++ {
				if h := rng.Uint64(); ref[h] == nil && sigs.bucket(h) != nil {
					t.Fatalf("%+v iter %d: bucket(%#x) = %v for an unindexed hash", opt, iter, h, sigs.bucket(h))
				}
			}
		}
	}
}

// TestSigHashSubsetIdentity checks the XOR hash's algebra on random rows
// and masks: sigHash is the XOR of its cells' hashes, so for S ⊆ G,
// sigHash(S) == sigHash(G) ^ sigHash(G&^S), and subHash computes it
// either way. No cell hashes to 0, so dropping an attribute always changes
// the signature's hash.
func TestSigHashSubsetIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 2000; iter++ {
		arity := 1 + rng.Intn(64)
		row := make([]model.ValueID, arity)
		for a := range row {
			row[a] = model.ValueID(rng.Intn(1 + rng.Intn(1000)))
		}
		full := ^uint64(0) >> (64 - arity)
		g := rng.Uint64() & full
		sub := rng.Uint64() & g
		perCell := func(mask uint64) uint64 {
			var h uint64
			for a := 0; a < arity; a++ {
				if mask&(1<<a) != 0 {
					h ^= cellHash(a, row[a])
				}
			}
			return h
		}
		hg := sigHash(row, g)
		if hg != perCell(g) {
			t.Fatalf("sigHash(%#x) = %#x, per-cell XOR %#x", g, hg, perCell(g))
		}
		hs := sigHash(row, sub)
		if hs != hg^sigHash(row, g&^sub) {
			t.Fatalf("sigHash(%#x) = %#x, sigHash(%#x) ^ sigHash(%#x) = %#x", sub, hs, g, g&^sub, hg^sigHash(row, g&^sub))
		}
		if got := subHash(row, g, hg, sub); got != hs {
			t.Fatalf("subHash(%#x ⊆ %#x) = %#x, sigHash %#x", sub, g, got, hs)
		}
		for m := g; m != 0; m &= m - 1 {
			if a := bits.TrailingZeros64(m); sigHash(row, g&^(1<<a)) == hg {
				t.Fatalf("dropping attribute %d (value %d) leaves the hash of %#x unchanged", a, row[a], g)
			}
		}
	}
	if cellHash(0, 0) == 0 {
		t.Error("cellHash(0, 0) == 0: a signature would hash equal with and without that cell")
	}
}

// filterBits returns the distinct filter bits of the given hashes.
func filterBits(tab *sigTable, hs []uint64) map[uint64]bool {
	out := map[uint64]bool{}
	for _, h := range hs {
		out[h>>tab.fshift] = true
	}
	return out
}

// setFilterBits counts the bits set in the table's filter.
func setFilterBits(tab *sigTable) int {
	n := 0
	for _, w := range tab.filter {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestSigTableFilter checks the probe filter on random fills, one table
// reused across them: it is a power of two of at least 16 bits per item;
// it passes every present hash; absent hashes that share a present hash's
// low bits (its first slot) or its top bits (its filter bit) come back
// nil, and those whose filter bit no present hash sets are turned away by
// the filter itself; and after each fill, large or small, exactly the
// present hashes' bits are set, so no stale bit lets a miss through.
func TestSigTableFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var tab sigTable
	for iter := 0; iter < 500; iter++ {
		// Alternate large and small fills.
		n := 1 + rng.Intn(8)
		if iter%2 == 0 {
			n = 500 + rng.Intn(3000)
		}
		items := make([]sigItem, n)
		present := map[uint64]bool{}
		var hs []uint64
		for i := range items {
			h := rng.Uint64()
			if i > 0 && rng.Intn(4) == 0 {
				h = items[rng.Intn(i)].h
			}
			items[i] = sigItem{h: h, ti: int32(i)}
			if !present[h] {
				present[h] = true
				hs = append(hs, h)
			}
		}
		tab.fill(context.Background(), items)
		if fb := 64 * len(tab.filter); fb&(fb-1) != 0 || fb < 16*n || (fb > 64 && fb >= 32*n) {
			t.Fatalf("iter %d: %d filter bits for %d items", iter, fb, n)
		}
		on := filterBits(&tab, hs)
		if got := setFilterBits(&tab); got != len(on) {
			t.Fatalf("iter %d: %d filter bits set, %d present hashes set %d", iter, got, len(hs), len(on))
		}
		for _, h := range hs {
			if !tab.mayHold(h) || len(tab.bucket(h)) == 0 {
				t.Fatalf("iter %d: present hash %#x filtered out", iter, h)
			}
			sameLow := h ^ (1 << 63) ^ rng.Uint64()&^(uint64(len(tab.slots))-1)
			sameTop := h ^ (1 + rng.Uint64()&(1<<tab.fshift-1)>>1)
			for _, miss := range []uint64{sameLow, sameTop} {
				if present[miss] {
					continue
				}
				if got := tab.bucket(miss); got != nil {
					t.Fatalf("iter %d: absent hash %#x (near %#x) returned %v", iter, miss, h, got)
				}
				if !on[miss>>tab.fshift] && tab.mayHold(miss) {
					t.Fatalf("iter %d: absent hash %#x passed the filter on a clear bit", iter, miss)
				}
			}
		}
	}
}
