// Package lakeindex implements sub-linear candidate retrieval for lake
// ranking: a compact per-instance MinHash sketch over the engine's canonical
// sketch-feature stream (instcmp.Prepared.SketchFeatures), plus an inverted
// index from banded sketch buckets (LSH-style) to candidates. Ranking a
// query against a large lake becomes: estimate Jaccard overlap from sketches
// to build a small shortlist, then run the real signature comparison only on
// the shortlist — instead of comparing the query against every candidate.
//
// The index is persistable (a versioned binary file with a header checksum,
// see persist.go) so cold starts skip both re-parsing and re-sketching the
// lake, and a mutex-guarded Dynamic variant (dynamic.go) lives inside
// long-running registries where candidates churn.
//
// Guarantees are probabilistic by construction: a sketch estimates the
// Jaccard similarity of two feature sets with standard error
// ~sqrt(J(1-J)/K) (≈0.044 at K=128), and banding at 32 bands × 4 rows makes
// a candidate with J ≥ 0.5 share at least one band with probability
// ≥ 1-(1-0.5^4)^32 ≈ 0.87 — the shortlist machinery widens to estimating
// every sketch whenever banding alone returns fewer candidates than asked
// for, so low-similarity lakes degrade to an O(n·K) word scan, never to a
// wrong early cutoff.
package lakeindex

import (
	"math"

	"instcmp/internal/model"
)

// Sketch and banding geometry. These parameters are baked into persisted
// index files; changing any of them requires bumping FormatVersion (the file
// layout) or SeedVersion (the hash semantics) in persist.go so stale files
// are rejected instead of silently misread.
const (
	// K is the number of MinHash permutations per sketch.
	K = 128
	// Bands and BandRows split the K sketch components into Bands bands of
	// BandRows components each for the inverted index.
	Bands    = 32
	BandRows = K / Bands
	// SeedVersion versions the permutation seeds AND the upstream feature
	// hashing (model.ValueHash + signature.SketchFeatures). Bump it whenever
	// either changes, so old index files fail loudly.
	SeedVersion = 1
)

// emptySlot is the sketch component of a permutation that saw no features.
// Two empty instances sketch identically (estimate 1), matching the lake
// prefilter's convention that two empty constant sets have overlap 1.
const emptySlot = math.MaxUint64

// seeds holds the K permutation seeds, derived deterministically from
// SeedVersion by a splitmix64 stream.
var seeds = func() [K]uint64 {
	var s [K]uint64
	// golden-ratio increment of splitmix64; the multiply wraps (runtime
	// uint64 arithmetic), seeding a distinct stream per SeedVersion.
	gamma := uint64(0x9e3779b97f4a7c15)
	x := gamma * uint64(SeedVersion+1)
	for i := range s {
		x += 0x9e3779b97f4a7c15
		s[i] = model.Mix64(x)
	}
	return s
}()

// Sketch is a K-permutation MinHash summary of one instance's feature set.
// It is immutable after NewSketch and safe to share across goroutines.
type Sketch struct {
	vals [K]uint64
}

// NewSketch folds a feature-hash stream (instcmp.Prepared.SketchFeatures)
// into a sketch. Order and duplicates in the stream do not affect the
// result: min() commutes and repeated features are idempotent.
func NewSketch(features []uint64) *Sketch {
	s := &Sketch{}
	for i := range s.vals {
		s.vals[i] = emptySlot
	}
	for _, f := range features {
		for i := range s.vals {
			if h := model.Mix64(f ^ seeds[i]); h < s.vals[i] {
				s.vals[i] = h
			}
		}
	}
	return s
}

// Estimate returns the MinHash estimate of the Jaccard similarity between
// the two sketched feature sets: the fraction of agreeing components.
func (s *Sketch) Estimate(t *Sketch) float64 {
	return float64(s.agree(t)) / K
}

// agree counts the components on which the two sketches agree (0..K), the
// integer numerator of Estimate. The count is branch-free: x | -x has its
// top bit set exactly when x != 0, so a mid-overlap pair's coin-flip
// component comparisons cost no mispredictions.
func (s *Sketch) agree(t *Sketch) int {
	differ := uint64(0)
	for i := range s.vals {
		x := s.vals[i] ^ t.vals[i]
		differ += (x | -x) >> 63
	}
	return K - int(differ)
}

// BandKeys returns the sketch's Bands bucket keys: band b hashes components
// [b*BandRows, (b+1)*BandRows) together with the band number, so equal rows
// in different bands land in different buckets.
func (s *Sketch) BandKeys() [Bands]uint64 {
	var keys [Bands]uint64
	for b := 0; b < Bands; b++ {
		h := uint64(14695981039346656037)
		h ^= uint64(b) + 1
		h *= 1099511628211
		for r := 0; r < BandRows; r++ {
			h ^= s.vals[b*BandRows+r]
			h *= 1099511628211
		}
		keys[b] = h
	}
	return keys
}

// Equal reports whether two sketches are component-wise identical (used by
// the serialization round-trip tests).
func (s *Sketch) Equal(t *Sketch) bool { return s.vals == t.vals }
