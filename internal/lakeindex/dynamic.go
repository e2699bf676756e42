package lakeindex

import "sync"

// Dynamic is a sketch index whose candidate set churns: the resident
// registry of instcmp-serve adds a sketch when an instance is registered and
// removes it when the instance is deleted, and concurrent /rank requests
// probe it the whole time.
//
// It keeps Index's positional layout and runs the same probe (shortlist);
// only the mutation differs. It follows the registry's RWMutex discipline
// (DESIGN.md §13): the fields are touched only under mu, probes take the
// read lock and never block each other, and the expensive work — sketching
// an instance — happens outside any lock (the caller builds the Sketch
// first, Add only links it in).
type Dynamic struct {
	mu sync.RWMutex
	// entries holds the live candidates in no particular order; byName maps
	// a name to its position. Remove moves the last entry into the freed
	// slot, so positions stay dense.
	entries []Entry
	byName  map[string]int32
	// buckets is the inverted index: band bucket key → entry positions.
	// Churn touches only the band buckets of the removed and the moved
	// entry, so it costs O(Bands · bucket size).
	buckets map[uint64][]int32
}

// NewDynamic returns an empty dynamic index.
func NewDynamic() *Dynamic {
	return &Dynamic{
		byName:  make(map[string]int32),
		buckets: make(map[uint64][]int32),
	}
}

// Len returns the number of indexed candidates.
func (d *Dynamic) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Contains reports whether the name is indexed.
func (d *Dynamic) Contains(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.byName[name]
	return ok
}

// Add indexes a sketch under the name, replacing any previous sketch for it.
// Compute the sketch before calling: Add itself is O(Bands) under the write
// lock.
func (d *Dynamic) Add(name string, sk *Sketch) {
	keys := sk.BandKeys()
	d.mu.Lock()
	defer d.mu.Unlock()
	if i, dup := d.byName[name]; dup {
		d.removeLocked(i)
	}
	i := int32(len(d.entries))
	d.entries = append(d.entries, Entry{Name: name, Sketch: sk})
	d.byName[name] = i
	for _, key := range keys {
		d.buckets[key] = append(d.buckets[key], i)
	}
}

// Remove unindexes the name and reports whether it was indexed.
func (d *Dynamic) Remove(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	i, ok := d.byName[name]
	if !ok {
		return false
	}
	d.removeLocked(i)
	return true
}

// removeLocked drops the entry at position i from the name map and its band
// buckets, then moves the last entry into the freed slot and rewrites that
// entry's bucket positions. Caller holds the write lock.
func (d *Dynamic) removeLocked(i int32) {
	gone := d.entries[i]
	delete(d.byName, gone.Name)
	for _, key := range gone.Sketch.BandKeys() {
		bucket := d.buckets[key]
		kept := bucket[:0]
		for _, p := range bucket {
			if p != i {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			delete(d.buckets, key)
		} else {
			d.buckets[key] = kept
		}
	}
	last := int32(len(d.entries) - 1)
	if i != last {
		moved := d.entries[last]
		d.entries[i] = moved
		d.byName[moved.Name] = i
		for _, key := range moved.Sketch.BandKeys() {
			bucket := d.buckets[key]
			for j, p := range bucket {
				if p == last {
					bucket[j] = i
				}
			}
		}
	}
	d.entries[last] = Entry{} // drop the sketch reference
	d.entries = d.entries[:last]
}

// Shortlist implements Searcher over the live candidate set. The returned
// hits are a consistent snapshot: the read lock is held across the whole
// probe, so a concurrent Register/Delete orders entirely before or after it.
func (d *Dynamic) Shortlist(q *Sketch, target int) ([]Hit, ProbeStats) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return shortlist(q, target, d.entries, d.buckets)
}
