package strsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

var metrics = map[string]Func{
	"Levenshtein":    Levenshtein,
	"Jaro":           Jaro,
	"JaroWinkler":    JaroWinkler,
	"TrigramJaccard": TrigramJaccard,
}

func TestMetricAxioms(t *testing.T) {
	for name, f := range metrics {
		prop := func(a, b string) bool {
			s := f(a, b)
			if s < 0 || s > 1+1e-12 {
				t.Logf("%s(%q, %q) = %v out of range", name, a, b, s)
				return false
			}
			if math.Abs(s-f(b, a)) > 1e-12 {
				t.Logf("%s not symmetric for %q, %q", name, a, b)
				return false
			}
			if f(a, a) != 1 {
				t.Logf("%s(%q, %q) != 1", name, a, a)
				return false
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"kitten", "sitting", 1 - 3.0/7},
		{"abc", "abc", 1},
		{"abc", "", 0},
		{"", "", 1},
		{"ab", "ba", 0},       // two substitutions over length 2
		{"flaw", "lawn", 0.5}, // distance 2 over length 4
	}
	for _, tc := range cases {
		if got := Levenshtein(tc.a, tc.b); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Levenshtein(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaroWinklerKnown(t *testing.T) {
	// The classic MARTHA/MARHTA example: Jaro 0.944, JW 0.961.
	if got := Jaro("MARTHA", "MARHTA"); math.Abs(got-0.9444444) > 1e-4 {
		t.Errorf("Jaro(MARTHA, MARHTA) = %v", got)
	}
	if got := JaroWinkler("MARTHA", "MARHTA"); math.Abs(got-0.9611111) > 1e-4 {
		t.Errorf("JaroWinkler(MARTHA, MARHTA) = %v", got)
	}
	if got := Jaro("abc", "xyz"); got != 0 {
		t.Errorf("Jaro of disjoint strings = %v, want 0", got)
	}
	// Winkler boost rewards shared prefixes.
	if JaroWinkler("prefix_aaa", "prefix_bbb") <= Jaro("prefix_aaa", "prefix_bbb") {
		t.Error("JaroWinkler should exceed Jaro on shared prefixes")
	}
}

func TestTrigramJaccard(t *testing.T) {
	if got := TrigramJaccard("hello", "hello"); got != 1 {
		t.Errorf("equal strings = %v", got)
	}
	if got := TrigramJaccard("abcdef", "uvwxyz"); got != 0 {
		t.Errorf("disjoint strings = %v", got)
	}
	near := TrigramJaccard("conference", "conferences")
	far := TrigramJaccard("conference", "confusion")
	if !(near > far && far >= 0) {
		t.Errorf("trigram ordering broken: near=%v far=%v", near, far)
	}
}

func TestThresholded(t *testing.T) {
	f := Thresholded(Levenshtein, 0.8)
	if got := f("same", "same"); got != 1 {
		t.Errorf("thresholded equal = %v", got)
	}
	if got := f("completely", "different!"); got != 0 {
		t.Errorf("thresholded far = %v, want 0", got)
	}
	// Values at or above the threshold pass through unchanged.
	raw := Levenshtein("versions", "version")
	if raw < 0.8 {
		t.Fatalf("fixture too dissimilar: %v", raw)
	}
	if got := f("versions", "version"); got != raw {
		t.Errorf("thresholded near = %v, want %v", got, raw)
	}
}

func TestUnicodeHandling(t *testing.T) {
	// Rune-based distances: one substitution in a 4-rune string.
	if got := Levenshtein("ünïco", "ünico"); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("unicode Levenshtein = %v, want 0.8", got)
	}
	if Jaro("héllo", "héllo") != 1 {
		t.Error("unicode Jaro identity broken")
	}
}

// referenceLevenshtein is the heap-allocating Levenshtein the stack-buffer
// version must reproduce bit for bit.
func referenceLevenshtein(a, b string) float64 {
	if a == b {
		return 1
	}
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		return 0
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return 1 - float64(prev[lb])/float64(max(la, lb))
}

// randomString draws n runes from a small alphabet of ASCII letters,
// multibyte runes and invalid UTF-8 bytes (each of which decodes to one
// U+FFFD), so random pairs share runes and the DP takes every branch.
func randomString(rng *rand.Rand, n int) string {
	pieces := []string{"a", "b", "c", "é", "ß", "東", "🙂", "\xff", "\xc3", "\xfe"}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

func TestLevenshteinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 4000; trial++ {
		a := randomString(rng, rng.Intn(81))
		var b string
		switch trial % 3 {
		case 0:
			b = randomString(rng, rng.Intn(81))
		case 1:
			// A near-copy: a with a few runes rewritten.
			rs := []rune(a)
			for k := rng.Intn(4); k > 0 && len(rs) > 0; k-- {
				rs[rng.Intn(len(rs))] = 'z'
			}
			b = string(rs)
		case 2:
			b = a + randomString(rng, rng.Intn(3))
		}
		have, want := Levenshtein(a, b), referenceLevenshtein(a, b)
		if math.Float64bits(have) != math.Float64bits(want) {
			t.Fatalf("Levenshtein(%q, %q) = %v, want %v", a, b, have, want)
		}
	}
	// Both strings at the stack limit allocate nothing.
	a, b := randomString(rng, stackRunes), randomString(rng, stackRunes)
	if n := utf8.RuneCountInString(a); n != stackRunes {
		t.Fatalf("a has %d runes", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { Levenshtein(a, b) }); allocs != 0 {
		t.Errorf("Levenshtein at %d runes: %v allocs/op, want 0", stackRunes, allocs)
	}
}
