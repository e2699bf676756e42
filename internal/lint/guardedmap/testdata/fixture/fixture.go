// Package fixture seeds guardedmap violations and the registry's legal
// locking patterns.
package fixture

import "sync"

// cache pairs a mutex with a map: every access to m must hold mu.
type cache struct {
	mu sync.RWMutex
	m  map[string]int
	n  int // non-map fields are not the mutex's business here
}

// newCache builds the map in a literal: no field selection, nothing to
// guard yet.
func newCache() *cache {
	return &cache{m: map[string]int{}}
}

// get takes the read lock first: fine.
func (c *cache) get(k string) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.m[k]
	return v, ok
}

// put takes the write lock first: fine.
func (c *cache) put(k string, v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = v
}

// racyGet reads the map with no lock anywhere.
func (c *cache) racyGet(k string) int {
	return c.m[k] // want "guarded by the struct's mutex"
}

// racyLen: len() of a guarded map is still a map read.
func (c *cache) racyLen() int {
	return len(c.m) // want "guarded by the struct's mutex"
}

// lateLock touches the map before the lock it eventually takes.
func (c *cache) lateLock(k string) int {
	v := c.m[k] // want "guarded by the struct's mutex"
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = v + 1
	return v
}

// sizeLocked follows the ...Locked convention: the caller holds the lock.
func (c *cache) sizeLocked() int {
	return len(c.m)
}

// expensivePrepOutsideLock mirrors Registry.Register: work before the lock
// is fine as long as the map access comes after.
func (c *cache) expensivePrepOutsideLock(k string) {
	v := len(k) * 2
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = v
}

// touchAllowed carries the justified escape hatch.
func (c *cache) touchAllowed() int {
	//instlint:allow guardedmap -- single-goroutine init, no readers yet
	return len(c.m)
}

// plain has a map but no mutex: not this analyzer's concern.
type plain struct {
	m map[string]int
}

func (p *plain) get(k string) int { return p.m[k] }

// counterOnly has a mutex but no map: also out of scope.
type counterOnly struct {
	mu sync.Mutex
	n  int
}

func (c *counterOnly) bump() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// invindex is shaped like lakeindex.Dynamic: a name map plus an inverted
// bucket map behind one RWMutex, with a slice alongside.
type invindex struct {
	mu       sync.RWMutex
	sketches map[string]int
	buckets  map[uint64][]string
	names    []string
}

// add computes nothing under the lock beyond the map links: fine.
func (d *invindex) add(name string, keys []uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sketches[name] = len(keys)
	for _, k := range keys {
		d.buckets[k] = append(d.buckets[k], name)
	}
}

// racyProbe reads a bucket without any lock.
func (d *invindex) racyProbe(k uint64) []string {
	return d.buckets[k] // want "guarded by the struct's mutex"
}

// racyContains reads the sketch map before taking the lock.
func (d *invindex) racyContains(name string) bool {
	_, ok := d.sketches[name] // want "guarded by the struct's mutex"
	d.mu.RLock()
	defer d.mu.RUnlock()
	return ok
}

// removeLocked follows the ...Locked convention: both maps may be touched.
func (d *invindex) removeLocked(name string) {
	delete(d.sketches, name)
	for k, bucket := range d.buckets {
		if len(bucket) == 0 {
			delete(d.buckets, k)
		}
	}
}

// remove holds the write lock across the helper: fine.
func (d *invindex) remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.removeLocked(name)
}
