package schemamap

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"instcmp/internal/model"
)

// people builds a small instance with columns of very different character:
// a near-unique id, a near-unique email, a low-cardinality city, a numeric
// age, and a mostly-null note.
func people() *model.Instance {
	in := model.NewInstance()
	in.AddRelation("people", "id", "email", "city", "age", "note")
	cities := []string{"oslo", "bergen", "oslo", "oslo", "bergen", "tromsø", "oslo", "bergen"}
	for i := 0; i < 8; i++ {
		note := model.Value(in.FreshNull("n"))
		if i == 0 {
			note = model.Const("vip")
		}
		in.Append("people",
			model.Const(fmt.Sprintf("id-%d", i)),
			model.Const(fmt.Sprintf("user%d@example.com", i)),
			model.Const(cities[i]),
			model.Const(fmt.Sprintf("%d", 20+i%5)),
			note,
		)
	}
	return in
}

func TestProfileRelation(t *testing.T) {
	p := ProfileInstance(people())
	if len(p) != 1 || len(p[0].Cols) != 5 {
		t.Fatalf("profile shape = %d rels / %v cols", len(p), len(p[0].Cols))
	}
	id := p[0].Cols[0]
	if id.Attr != "id" || id.Rows != 8 || id.NonNull != 8 || id.Distinct != 8 {
		t.Errorf("id profile = %+v", id)
	}
	if id.Uniqueness != 1 || id.NullShare != 0 {
		t.Errorf("id uniqueness=%v nullShare=%v", id.Uniqueness, id.NullShare)
	}
	city := p[0].Cols[2]
	if city.Distinct != 3 || city.Uniqueness >= 0.5 {
		t.Errorf("city profile = %+v", city)
	}
	age := p[0].Cols[3]
	if age.NumericShare != 1 {
		t.Errorf("age numericShare = %v", age.NumericShare)
	}
	note := p[0].Cols[4]
	if note.NonNull != 1 || note.NullShare != 7.0/8 {
		t.Errorf("note profile = %+v", note)
	}
	if got := p[0].Cols[0].Sketch.Estimate(p[0].Cols[0].Sketch); got != 1 {
		t.Errorf("self estimate = %v", got)
	}
}

// drift renames and reorders people's columns without touching the data.
func driftPeople(in *model.Instance) *model.Instance {
	out := model.NewInstance()
	// Reordered: note, city, id, age, email — and every name rewritten.
	out.AddRelation("people", "remark", "town", "pk", "years", "mail")
	src := in.Relations()[0]
	for _, tu := range src.Tuples {
		out.Append("people", tu.Values[4], tu.Values[2], tu.Values[0], tu.Values[3], tu.Values[1])
	}
	return out
}

func TestDiscoverRenameReorder(t *testing.T) {
	l := people()
	r := driftPeople(l)
	m := Discover(l, r, Options{})
	if len(m.Rels) != 1 || len(m.LeftOnly)+len(m.RightOnly) != 0 {
		t.Fatalf("relation pairing = %+v", m)
	}
	rel := m.Rels[0]
	want := map[string]string{"id": "pk", "email": "mail", "city": "town", "age": "years", "note": "remark"}
	if len(rel.Attrs) != len(want) {
		t.Fatalf("attr pairs = %+v", rel.Attrs)
	}
	for _, ap := range rel.Attrs {
		if want[ap.LeftAttr] != ap.RightAttr {
			t.Errorf("mapped %q -> %q, want %q", ap.LeftAttr, ap.RightAttr, want[ap.LeftAttr])
		}
	}
	if len(rel.LeftUnmapped)+len(rel.RightUnmapped) != 0 {
		t.Errorf("unmapped = %v / %v", rel.LeftUnmapped, rel.RightUnmapped)
	}
	if m.Confidence <= 0 || m.Confidence > 1 {
		t.Errorf("confidence = %v", m.Confidence)
	}

	// A complete mapping's Apply reconstructs the left schema exactly, and
	// the values land back in their pre-drift columns.
	rewritten, names, err := m.Apply(r)
	if err != nil {
		t.Fatal(err)
	}
	if !model.SameSchema(l, rewritten) {
		t.Fatalf("rewritten schema differs:\n%s\nvs\n%s", rewritten, l)
	}
	if names["people"] != "people" {
		t.Errorf("name translation = %v", names)
	}
	lt := l.Relations()[0].Tuples
	rt := rewritten.Relations()[0].Tuples
	for i := range lt {
		if !reflect.DeepEqual(lt[i].Values, rt[i].Values) {
			t.Errorf("row %d: %v vs %v", i, lt[i].Values, rt[i].Values)
		}
	}
}

func TestDiscoverDeterministic(t *testing.T) {
	l := people()
	r := driftPeople(l)
	a := Discover(l, r, Options{})
	b := Discover(l, r, Options{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two discoveries differ:\n%+v\n%+v", a, b)
	}
}

func TestDiscoverDropColumn(t *testing.T) {
	l := people()
	r, err := driftPeople(l).DropColumn("people", "town")
	if err != nil {
		t.Fatal(err)
	}
	m := Discover(l, r, Options{})
	rel := m.Rels[0]
	if len(rel.LeftUnmapped) != 1 || l.Relations()[0].Attrs[rel.LeftUnmapped[0]] != "city" {
		t.Fatalf("dropped column not detected: %+v", rel)
	}
	for _, ap := range rel.Attrs {
		if ap.LeftAttr == "city" {
			t.Fatalf("city mapped to %q despite drop", ap.RightAttr)
		}
	}
	full := Discover(l, driftPeople(l), Options{})
	if m.Confidence >= full.Confidence {
		t.Errorf("confidence did not degrade: drop %v vs full %v", m.Confidence, full.Confidence)
	}
}

func TestDiscoverRenamedRelation(t *testing.T) {
	l := people()
	r := driftPeople(l)
	// Rename the relation too: pairing must fall back to the sketch.
	r2 := model.NewInstance()
	src := r.Relations()[0]
	r2.AddRelation("persons", src.Attrs...)
	for _, tu := range src.Tuples {
		r2.Append("persons", tu.Values...)
	}
	m := Discover(l, r2, Options{})
	if len(m.Rels) != 1 || m.Rels[0].RightName != "persons" {
		t.Fatalf("relation pairing = %+v", m)
	}
	rewritten, names, err := m.Apply(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !model.SameSchema(l, rewritten) {
		t.Fatalf("rewritten schema differs")
	}
	if names["people"] != "persons" {
		t.Errorf("name translation = %v", names)
	}
}

func TestDiscoverDisjointRelations(t *testing.T) {
	l := model.NewInstance()
	l.AddRelation("a", "x")
	l.Append("a", model.Const("1"))
	r := model.NewInstance()
	r.AddRelation("b", "y")
	r.Append("b", model.Const("completely-different"))
	m := Discover(l, r, Options{})
	if len(m.Rels) != 0 {
		t.Fatalf("disjoint instances paired: %+v", m.Rels)
	}
	if !reflect.DeepEqual(m.LeftOnly, []string{"a"}) || !reflect.DeepEqual(m.RightOnly, []string{"b"}) {
		t.Fatalf("only-lists = %v / %v", m.LeftOnly, m.RightOnly)
	}
	if m.Confidence != 0 {
		t.Fatalf("confidence = %v", m.Confidence)
	}
}

func TestApplyStaleMapping(t *testing.T) {
	l := people()
	r := driftPeople(l)
	m := Discover(l, r, Options{})
	other := model.NewInstance()
	other.AddRelation("elsewhere", "z")
	if _, _, err := m.Apply(other); err == nil {
		t.Fatal("Apply on a foreign instance succeeded")
	}
	dropped, _ := r.DropColumn("people", "years")
	if _, _, err := m.Apply(dropped); err == nil {
		t.Fatal("Apply with stale attribute positions succeeded")
	}
}

func TestAssignMax(t *testing.T) {
	cases := []struct {
		sim  [][]float64
		want []int
	}{
		// Diagonal is optimal.
		{[][]float64{{0.9, 0.1}, {0.1, 0.9}}, []int{0, 1}},
		// Greedy would take (0,0); optimum crosses.
		{[][]float64{{0.9, 0.8}, {0.85, 0.1}}, []int{1, 0}},
		// Rectangular: more columns than rows.
		{[][]float64{{0.1, 0.9, 0.2}}, []int{1}},
		// More rows than columns: one row stays unassigned.
		{[][]float64{{0.9}, {0.8}}, []int{0, -1}},
		// All-zero similarities still assign (caller filters by floor).
		{[][]float64{{0, 0}, {0, 0}}, []int{0, 1}},
	}
	for i, c := range cases {
		if got := assignMax(c.sim); !reflect.DeepEqual(got, c.want) {
			t.Errorf("case %d: assignMax = %v, want %v", i, got, c.want)
		}
	}
	if got := assignMax(nil); got != nil {
		t.Errorf("assignMax(nil) = %v", got)
	}
}

func TestUniquify(t *testing.T) {
	used := map[string]bool{}
	if got := uniquify("a", used); got != "a" {
		t.Fatalf("first = %q", got)
	}
	if got := uniquify("a", used); got != "a·" {
		t.Fatalf("second = %q", got)
	}
	if got := uniquify("a", used); got != "a··" {
		t.Fatalf("third = %q", got)
	}
}

// TestIsNumericMatchesParseFloat pins isNumeric's first-byte shortcut to
// ParseFloat on the trimmed text, over the special spellings ParseFloat
// accepts, the prefixes and separators it handles, and plain words; words
// must not allocate.
func TestIsNumericMatchesParseFloat(t *testing.T) {
	for _, s := range []string{
		"", " ", "-", "+", ".", "0", "12", " 12 ", "\t-3.5\n", "+.5", "-.5e3", "1e", "1e-7",
		"inf", "+Inf", "-infinity", "Infinity", "INF", "infx", "NaN", "nan", "-nan", "N/A", "none",
		"0x1p-2", "0x10", "0X1P+2", "1_000", "0x_1p0", "1,5", "12abc",
		"oslo", "bergen", "id-3", "user1@example.com", "Ärzte", "ñ", "€5", "(12)", "#1", "true",
	} {
		_, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if got, want := isNumeric(s), strings.TrimSpace(s) != "" && err == nil; got != want {
			t.Errorf("isNumeric(%q) = %v, ParseFloat says %v", s, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { isNumeric("bergen") }); n != 0 {
		t.Errorf("isNumeric on a word allocates %v times", n)
	}
}
