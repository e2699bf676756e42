package model

// This file defines the canonical 64-bit value hashing the sketch layer is
// built on. ValueIDs are deliberately NOT hashable across instances: they
// are dense per-interner codes, so the same constant receives different IDs
// in different instances. Anything that compares instances without a joint
// interner — the lake's MinHash sketches, the banded signature index — must
// hash value *content* instead. These hashes are part of the persisted index
// format (internal/lakeindex), so changing them requires bumping
// lakeindex.SeedVersion to invalidate old index files.

// FNV-1a constants.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// valueTag domain-separates constants from labeled nulls, so Const("x") and
// Null("x") never collide.
const (
	constTag byte = 0x01
	nullTag  byte = 0x02
)

// ValueHash returns a canonical FNV-1a hash of a value's content: equal
// values hash equal in every instance, which is what makes sketches built in
// different processes (or index files built in past runs) comparable.
func ValueHash(v Value) uint64 {
	tag := constTag
	if v.null {
		tag = nullTag
	}
	h := fnvOffset
	h ^= uint64(tag)
	h *= fnvPrime
	for i := 0; i < len(v.s); i++ {
		h ^= uint64(v.s[i])
		h *= fnvPrime
	}
	return h
}

// NameHash returns a canonical FNV-1a hash of an attribute (or relation)
// name, for composing (attribute, value) feature hashes.
func NameHash(s string) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Mix64 is the splitmix64 finalizer: a cheap 64-bit permutation with good
// avalanche. The lake's MinHash sketches apply it per (feature, seed) pair
// and the signature algorithm per (attribute, ValueID) cell.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MixHash folds two 64-bit hashes into one with an FNV-1a step, the
// composition used for (attribute, value) sketch features.
func MixHash(a, b uint64) uint64 {
	h := fnvOffset
	h ^= a
	h *= fnvPrime
	h ^= b
	h *= fnvPrime
	return h
}
