// Package strsim provides string-similarity metrics for the fine-grained
// constant comparison the paper names as future work (Sec. 9): instead of
// scoring two different constants 0, a partial match can credit them with
// their textual similarity. All metrics return values in [0, 1] with 1 for
// equal strings, and are symmetric.
package strsim

import "unicode/utf8"

// Func is a normalized string-similarity function: symmetric, in [0, 1],
// and 1 exactly for equal strings.
type Func func(a, b string) float64

// Levenshtein returns 1 - editDistance(a, b) / max(len(a), len(b)), the
// normalized edit-distance similarity (distance counted in runes).
//
// It is the constant similarity of fuzzy partial matches, called for every
// differing constant pair a match scores, so strings of up to stackRunes
// runes — nearly every cell value — decode and run their DP rows in stack
// buffers and allocate nothing. Longer strings take the same DP on the
// heap.
func Levenshtein(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	if la == 0 || lb == 0 {
		return 0
	}
	if la <= stackRunes && lb <= stackRunes {
		var ra, rb [stackRunes]rune
		var prev, cur [stackRunes + 1]int
		return levenshtein(appendRunes(ra[:0], a), appendRunes(rb[:0], b), prev[:], cur[:])
	}
	return levenshtein([]rune(a), []rune(b), make([]int, lb+1), make([]int, lb+1))
}

// stackRunes is the longest string, in runes, Levenshtein scores in stack
// buffers.
const stackRunes = 64

// appendRunes appends the runes of s to buf, decoding exactly as []rune(s)
// does: each byte of invalid UTF-8 yields one U+FFFD.
func appendRunes(buf []rune, s string) []rune {
	for _, r := range s {
		buf = append(buf, r)
	}
	return buf
}

// levenshtein runs the two-row edit-distance DP of ra against rb; prev and
// cur hold at least len(rb)+1 entries each.
func levenshtein(ra, rb []rune, prev, cur []int) float64 {
	la, lb := len(ra), len(rb)
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

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Jaro returns the Jaro similarity of two strings.
func Jaro(a, b string) float64 {
	if a == b {
		return 1
	}
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		return 0
	}
	window := max2(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := range ra {
		lo, hi := i-window, i+window+1
		if lo < 0 {
			lo = 0
		}
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i], matchB[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	transpositions := 0
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
}

// JaroWinkler boosts Jaro similarity for strings sharing a prefix (up to 4
// runes, scaling factor 0.1), the classic record-linkage metric.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	if j == 0 {
		return 0
	}
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// TrigramJaccard returns the Jaccard similarity of the strings' rune
// trigram sets (strings shorter than 3 runes compare by equality of their
// padded forms).
func TrigramJaccard(a, b string) float64 {
	if a == b {
		return 1
	}
	ta, tb := trigrams(a), trigrams(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	inter := 0
	for g := range ta {
		if tb[g] {
			inter++
		}
	}
	union := len(ta) + len(tb) - inter
	return float64(inter) / float64(union)
}

func trigrams(s string) map[string]bool {
	if utf8.RuneCountInString(s) == 0 {
		return nil
	}
	padded := "\x01\x01" + s + "\x02\x02"
	rs := []rune(padded)
	out := make(map[string]bool, len(rs))
	for i := 0; i+3 <= len(rs); i++ {
		out[string(rs[i:i+3])] = true
	}
	return out
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Thresholded wraps a metric so values below the threshold drop to 0 —
// useful to keep vaguely similar constants from matching at all.
func Thresholded(f Func, threshold float64) Func {
	return func(a, b string) float64 {
		s := f(a, b)
		if s < threshold {
			return 0
		}
		return s
	}
}
