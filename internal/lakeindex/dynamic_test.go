package lakeindex

import (
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
)

func TestDynamicAddRemoveReplace(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := NewDynamic()
	a := NewSketch(randomFeatures(300, rng))
	b := NewSketch(randomFeatures(300, rng))

	d.Add("x", a)
	if !d.Contains("x") || d.Len() != 1 {
		t.Fatalf("after Add: Contains=%v Len=%d", d.Contains("x"), d.Len())
	}
	// Replacing must drop the old sketch's buckets: a query equal to the old
	// sketch should no longer find "x" through banding alone.
	d.Add("x", b)
	if d.Len() != 1 {
		t.Fatalf("replace changed Len to %d", d.Len())
	}
	hits, _ := d.Shortlist(b, 1)
	if len(hits) != 1 || hits[0].Name != "x" || hits[0].Estimate != 1 {
		t.Fatalf("replaced sketch not retrievable: %+v", hits)
	}
	if !d.Remove("x") || d.Contains("x") || d.Len() != 0 {
		t.Fatal("Remove did not unindex")
	}
	if d.Remove("x") {
		t.Error("second Remove reported true")
	}
	// All buckets must be gone, or churn would leak memory in a long-running
	// registry.
	if len(d.entries) != 0 || len(d.byName) != 0 || len(d.buckets) != 0 {
		t.Errorf("leftovers after removal: %d entries, %d names, %d buckets",
			len(d.entries), len(d.byName), len(d.buckets))
	}
}

func TestDynamicMatchesStaticIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	entries, query := syntheticLake(200, 10, rng)
	q := NewSketch(query)
	d := NewDynamic()
	// check holds the dynamic index to a static index built over the same
	// live set: same layout invariants, same hits, same probe statistics.
	check := func(stage string, live []Entry) {
		t.Helper()
		checkDynamicLayout(t, d)
		ix, err := Build(live)
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != ix.Len() {
			t.Fatalf("%s: Len: dynamic %d vs static %d", stage, d.Len(), ix.Len())
		}
		for _, target := range []int{10, 40, 0} {
			want, wantSt := ix.Shortlist(q, target)
			have, haveSt := d.Shortlist(q, target)
			if haveSt != wantSt {
				t.Errorf("%s, target %d: probe stats dynamic %+v vs static %+v", stage, target, haveSt, wantSt)
			}
			if len(want) != len(have) {
				t.Fatalf("%s, target %d: %d vs %d hits", stage, target, len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Errorf("%s, target %d: hit[%d] dynamic %+v vs static %+v", stage, target, i, have[i], want[i])
				}
			}
		}
	}

	// Insert in shuffled order, then remove every third inserted candidate:
	// each of those sits in the middle of the entries slice, so every
	// removal moves the last entry into the freed slot.
	perm := rng.Perm(len(entries))
	for _, i := range perm {
		d.Add(entries[i].Name, entries[i].Sketch)
	}
	check("all added", entries)
	var live []Entry
	for k, i := range perm {
		if k%3 == 0 {
			d.Remove(entries[i].Name)
		} else {
			live = append(live, entries[i])
		}
	}
	check("third removed", live)
	for k, i := range perm {
		if k%3 == 0 {
			d.Add(entries[i].Name, entries[i].Sketch)
		}
	}
	check("re-added", entries)
}

// checkDynamicLayout verifies the positional layout: byName and entries
// agree, and every bucket holds exactly the positions whose sketches band
// into it.
func checkDynamicLayout(t *testing.T, d *Dynamic) {
	t.Helper()
	if len(d.byName) != len(d.entries) {
		t.Fatalf("byName has %d names for %d entries", len(d.byName), len(d.entries))
	}
	want := make(map[uint64]map[int32]int)
	for i, e := range d.entries {
		if p, ok := d.byName[e.Name]; !ok || p != int32(i) {
			t.Fatalf("byName[%q] = %d, %v; entry sits at %d", e.Name, p, ok, i)
		}
		for _, key := range e.Sketch.BandKeys() {
			if want[key] == nil {
				want[key] = make(map[int32]int)
			}
			want[key][int32(i)]++
		}
	}
	if len(d.buckets) != len(want) {
		t.Fatalf("%d buckets, want %d", len(d.buckets), len(want))
	}
	for key, bucket := range d.buckets {
		have := make(map[int32]int, len(bucket))
		for _, p := range bucket {
			have[p]++
		}
		if !reflect.DeepEqual(have, want[key]) {
			t.Fatalf("bucket %x holds %v, want %v", key, have, want[key])
		}
	}
}

func TestDynamicConcurrentChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	entries, query := syntheticLake(64, 8, rng)
	d := NewDynamic()
	// Stable block that is never removed: probes must always see it.
	for _, e := range entries[:16] {
		d.Add(e.Name, e.Sketch)
	}
	q := NewSketch(query)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			block := entries[16+12*w : 16+12*(w+1)]
			for round := 0; round < 50; round++ {
				for _, e := range block {
					d.Add(e.Name+"-"+strconv.Itoa(w), e.Sketch)
				}
				for _, e := range block {
					d.Remove(e.Name + "-" + strconv.Itoa(w))
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				hits, _ := d.Shortlist(q, 16)
				if len(hits) < 16 {
					t.Errorf("probe lost the stable block: %d hits", len(hits))
					return
				}
				seen := make(map[string]bool, len(hits))
				for _, h := range hits {
					if seen[h.Name] {
						t.Errorf("duplicate hit %q", h.Name)
						return
					}
					seen[h.Name] = true
				}
			}
		}()
	}
	wg.Wait()
	if d.Len() != 16 {
		t.Errorf("after churn Len = %d, want the 16 stable entries", d.Len())
	}
}
