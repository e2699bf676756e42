package instcmp

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"instcmp/internal/generator"
)

// explanationFingerprint renders every explanation field of a result —
// matched pairs in order, unmatched tuple IDs in order, and both value
// mappings sorted by key — and hashes the rendering.
func explanationFingerprint(res *Result) string {
	var b strings.Builder
	for _, p := range res.Pairs {
		fmt.Fprintf(&b, "pair %s %d %d %x\n", p.Relation, p.LeftID, p.RightID, math.Float64bits(p.Score))
	}
	fmt.Fprintf(&b, "left unmatched %v\nright unmatched %v\n", res.LeftUnmatched, res.RightUnmatched)
	for _, side := range []map[Value]Value{res.LeftValueMapping, res.RightValueMapping} {
		lines := make([]string, 0, len(side))
		for k, v := range side {
			lines = append(lines, fmt.Sprintf("%v -> %v", k, v))
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "mapping %q\n", lines)
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// explanationPinScenarios extends the prepared-equivalence shapes with the
// explanation's remaining translations: right nulls renamed apart whose
// classes are represented by a renamed right null, nulls introduced by
// schema padding, and a relation renamed back through mapping discovery.
func explanationPinScenarios() []prepScenario {
	scs := prepScenarios()
	scs = append(scs,
		prepScenario{
			name: "rename-apart-right-representative",
			build: func() (*Instance, *Instance) {
				l, r := NewInstance(), NewInstance()
				for _, in := range []*Instance{l, r} {
					in.AddRelation("R", "A", "B")
				}
				l.Append("R", Const("x"), Null("N1"))
				l.Append("R", Const("y"), Null("N2"))
				r.Append("R", Const("x"), Null("N2"))
				r.Append("R", Const("y"), Null("N2"))
				r.Append("R", Null("N1"), Null("N3"))
				return l, r
			},
			opt: Options{Algorithm: AlgoExact, Mode: ManyToMany},
		},
		prepScenario{
			name: "schema-padding-nulls",
			build: func() (*Instance, *Instance) {
				l, r := NewInstance(), NewInstance()
				l.AddRelation("R", "A", "B")
				r.AddRelation("R", "A", "B", "C")
				r.AddRelation("T", "D")
				l.Append("R", Const("x"), Null("l1"))
				l.Append("R", Const("y"), Const("b"))
				r.Append("R", Const("x"), Const("a"), Const("c"))
				r.Append("R", Const("y"), Null("r1"), Null("r2"))
				r.Append("T", Const("d"))
				return l, r
			},
			opt: Options{Algorithm: AlgoExact, Mode: ManyToMany, AlignSchemas: true},
		},
		prepScenario{
			name: "discover-mapping-renamed-relation",
			build: func() (*Instance, *Instance) {
				left, right := driftFixture()
				left.Relation("people").Tuples[5].Values[3] = Null("l1")
				drifted, _ := generator.DriftTarget(right, generator.Drift{RenamePct: 1, Reorder: true, RenameRelations: true, Seed: 13})
				return left, drifted
			},
			opt: Options{Algorithm: AlgoSignature, Lambda: 0.5, DiscoverMapping: true},
		},
	)
	return scs
}

// TestExplanationPinned pins the explanation of every scenario, one-shot and
// prepared, to fixed fingerprints. The regress goldens pin only scores and
// pair counts, and both entry points share the explanation code, so
// equivalence between them cannot catch a change there; these can.
func TestExplanationPinned(t *testing.T) {
	want := map[string]string{
		"ground-exact-1to1":                 "5328d5093923b940",
		"shared-null-names-functional":      "fd214f18537c9cf1",
		"align-schemas-signature":           "4ec6354e7571cba7",
		"multirel-exact-ntom":               "ba37dfc594939d15",
		"large-partial-signature":           "9db28c41884f31e1",
		"rename-apart-right-representative": "68ec7c471e1225cd",
		"schema-padding-nulls":              "5822dc93b77762c5",
		"discover-mapping-renamed-relation": "2dcd236bb42bbef9",
	}
	for _, sc := range explanationPinScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			l, r := sc.build()
			opt := sc.opt
			oneShot, err := Compare(l, r, &opt)
			if err != nil {
				t.Fatal(err)
			}
			lp, err := Prepare(l)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := Prepare(r)
			if err != nil {
				t.Fatal(err)
			}
			prepared, err := ComparePrepared(lp, rp, &opt)
			if err != nil {
				t.Fatal(err)
			}
			for path, res := range map[string]*Result{"one-shot": oneShot, "prepared": prepared} {
				if got := explanationFingerprint(res); got != want[sc.name] {
					t.Errorf("%s: explanation fingerprint %s, pinned %s", path, got, want[sc.name])
				}
			}
		})
	}
}
