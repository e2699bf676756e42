package serve

import (
	"fmt"
	"time"

	"instcmp"
	"instcmp/internal/model"
)

// WireInstance is the JSON shape of an instance: relations of named,
// schema'd string tuples. Cells reuse the CSV convention — a cell starting
// with "_:" (model.NullPrefix) is the labeled null named by the rest of the
// cell, everything else is a constant.
type WireInstance struct {
	Relations []WireRelation `json:"relations"`
}

// WireRelation is one relation of a WireInstance.
type WireRelation struct {
	Name   string     `json:"name"`
	Attrs  []string   `json:"attrs"`
	Tuples [][]string `json:"tuples"`
}

// Decode validates and converts the wire instance into a model instance.
func (w WireInstance) Decode() (*instcmp.Instance, error) {
	if len(w.Relations) == 0 {
		return nil, fmt.Errorf("instance has no relations")
	}
	in := instcmp.NewInstance()
	seen := map[string]bool{}
	//instlint:allow ctxpoll -- one linear pass over a body already capped by MaxBytesReader; decoding that body cost more
	for _, rel := range w.Relations {
		if rel.Name == "" {
			return nil, fmt.Errorf("relation with empty name")
		}
		if seen[rel.Name] {
			return nil, fmt.Errorf("duplicate relation %q", rel.Name)
		}
		seen[rel.Name] = true
		if len(rel.Attrs) == 0 {
			return nil, fmt.Errorf("relation %q has no attributes", rel.Name)
		}
		in.AddRelation(rel.Name, rel.Attrs...)
		for ti, row := range rel.Tuples {
			if len(row) != len(rel.Attrs) {
				return nil, fmt.Errorf("relation %q tuple %d has %d cells, want %d",
					rel.Name, ti, len(row), len(rel.Attrs))
			}
			vals := make([]instcmp.Value, len(row))
			for i, cell := range row {
				vals[i] = model.Parse(cell)
			}
			in.Append(rel.Name, vals...)
		}
	}
	return in, nil
}

// EncodeInstance converts an instance to its wire shape (nulls rendered
// with the "_:" marker).
func EncodeInstance(in *instcmp.Instance) *WireInstance {
	w := &WireInstance{}
	//instlint:allow ctxpoll -- one linear pass over an already-registered instance, cheaper than the JSON encode that follows
	for _, rel := range in.Relations() {
		wr := WireRelation{Name: rel.Name, Attrs: append([]string(nil), rel.Attrs...)}
		for _, t := range rel.Tuples {
			row := make([]string, len(t.Values))
			for i, v := range t.Values {
				row[i] = v.String()
			}
			wr.Tuples = append(wr.Tuples, row)
		}
		w.Relations = append(w.Relations, wr)
	}
	return w
}

// WireOptions is the JSON shape of comparison options shared by the
// compare and explain endpoints. The zero value means the engine defaults
// (n-to-m mode, default λ, automatic algorithm).
type WireOptions struct {
	// Mode is "1to1", "functional", or "ntom" (default), matching the CLI.
	Mode string `json:"mode,omitempty"`
	// Lambda is the null-to-constant penalty (0 = default; set
	// ExplicitZeroLambda for λ = 0).
	Lambda             float64 `json:"lambda,omitempty"`
	ExplicitZeroLambda bool    `json:"explicit_zero_lambda,omitempty"`
	// Algorithm is "auto" (default), "signature", or "exact".
	Algorithm     string `json:"algorithm,omitempty"`
	ExactMaxNodes int64  `json:"exact_max_nodes,omitempty"`
	ExactWorkers  int    `json:"exact_workers,omitempty"` // ignored; still decoded so existing requests stay valid
	SigWorkers    int    `json:"sig_workers,omitempty"`
	Partial       bool   `json:"partial,omitempty"`
	MinPartialSig int    `json:"min_partial_sig,omitempty"`
	AlignSchemas  bool   `json:"align_schemas,omitempty"`
	// DiscoverMapping compares under a discovered attribute mapping when
	// the schemas mismatch (renamed/reordered columns); the response then
	// carries the mapping and its confidence.
	DiscoverMapping bool `json:"discover_mapping,omitempty"`
	// TimeoutMS bounds the whole request. A request that exceeds it does
	// not fail: the engines are anytime, so the response carries the best
	// match found with "stopped" set (see Result.Stopped).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// parseMode maps a wire mode string to an engine mode.
func parseMode(s string) (instcmp.Mode, error) {
	switch s {
	case "1to1":
		return instcmp.OneToOne, nil
	case "functional":
		return instcmp.Functional, nil
	case "ntom", "":
		return instcmp.ManyToMany, nil
	}
	return instcmp.ManyToMany, fmt.Errorf("unknown mode %q (want 1to1, functional, or ntom)", s)
}

// parseAlgorithm maps a wire algorithm string to an engine selector.
func parseAlgorithm(s string) (instcmp.Algorithm, error) {
	switch s {
	case "auto", "":
		return instcmp.AlgoAuto, nil
	case "signature":
		return instcmp.AlgoSignature, nil
	case "exact":
		return instcmp.AlgoExact, nil
	}
	return instcmp.AlgoAuto, fmt.Errorf("unknown algorithm %q (want auto, signature, or exact)", s)
}

// engineOptions converts wire options to engine options (TimeoutMS is
// handled by the request context, not here).
func (w *WireOptions) engineOptions() (*instcmp.Options, error) {
	mode, err := parseMode(w.Mode)
	if err != nil {
		return nil, err
	}
	algo, err := parseAlgorithm(w.Algorithm)
	if err != nil {
		return nil, err
	}
	return &instcmp.Options{
		Mode:               mode,
		Lambda:             w.Lambda,
		ExplicitZeroLambda: w.ExplicitZeroLambda,
		Algorithm:          algo,
		ExactMaxNodes:      w.ExactMaxNodes,
		ExactWorkers:       w.ExactWorkers,
		SigWorkers:         w.SigWorkers,
		Partial:            w.Partial,
		MinPartialSig:      w.MinPartialSig,
		AlignSchemas:       w.AlignSchemas,
		DiscoverMapping:    w.DiscoverMapping,
	}, nil
}

func (w *WireOptions) timeout() time.Duration {
	if w.TimeoutMS <= 0 {
		return 0
	}
	return time.Duration(w.TimeoutMS) * time.Millisecond
}

// CompareRequest asks for the similarity of two registered instances.
type CompareRequest struct {
	Left    string      `json:"left"`
	Right   string      `json:"right"`
	Options WireOptions `json:"options"`
}

// CompareResponse reports a comparison outcome. Stopped is "" for a
// comparison that ran to its natural end and a Stopped* reason when the
// request deadline (or an engine budget) cut it short — the score is then
// the best match found so far, not an error.
type CompareResponse struct {
	Left       string                   `json:"left"`
	Right      string                   `json:"right"`
	Score      float64                  `json:"score"`
	Algorithm  string                   `json:"algorithm"`
	Exhaustive bool                     `json:"exhaustive"`
	Stopped    string                   `json:"stopped,omitempty"`
	Mapping    *WireMapping             `json:"mapping,omitempty"`
	ElapsedMS  float64                  `json:"elapsed_ms"`
	Stats      *instcmp.ComparisonStats `json:"stats,omitempty"`
}

// WireColumnMapping is one discovered attribute pair.
type WireColumnMapping struct {
	Left       string  `json:"left"`
	Right      string  `json:"right"`
	Similarity float64 `json:"similarity"`
	Method     string  `json:"method"`
}

// WireRelationMapping is one discovered relation pair with its columns.
type WireRelationMapping struct {
	Left          string              `json:"left"`
	Right         string              `json:"right"`
	Confidence    float64             `json:"confidence"`
	Columns       []WireColumnMapping `json:"columns"`
	LeftUnmapped  []string            `json:"left_unmapped,omitempty"`
	RightUnmapped []string            `json:"right_unmapped,omitempty"`
}

// WireMapping is the JSON shape of a discovered schema mapping
// (instcmp.SchemaMapping).
type WireMapping struct {
	Confidence float64               `json:"confidence"`
	Relations  []WireRelationMapping `json:"relations"`
	LeftOnly   []string              `json:"left_only,omitempty"`
	RightOnly  []string              `json:"right_only,omitempty"`
}

// wireMapping converts a discovered mapping to its wire shape (nil in,
// nil out).
func wireMapping(m *instcmp.SchemaMapping) *WireMapping {
	if m == nil {
		return nil
	}
	w := &WireMapping{Confidence: m.Confidence, LeftOnly: m.LeftOnly, RightOnly: m.RightOnly}
	//instlint:allow ctxpoll -- one linear pass over a mapping bounded by the schemas' column counts, cheaper than the JSON encode that follows
	for _, rm := range m.Relations {
		wr := WireRelationMapping{
			Left: rm.Left, Right: rm.Right, Confidence: rm.Confidence,
			LeftUnmapped: rm.LeftUnmapped, RightUnmapped: rm.RightUnmapped,
		}
		for _, c := range rm.Columns {
			wr.Columns = append(wr.Columns, WireColumnMapping{
				Left: c.Left, Right: c.Right, Similarity: c.Similarity, Method: c.Method,
			})
		}
		w.Relations = append(w.Relations, wr)
	}
	return w
}

// ExplainRequest asks for the full instance match between two registered
// instances, not just the score.
type ExplainRequest struct {
	Left    string      `json:"left"`
	Right   string      `json:"right"`
	Options WireOptions `json:"options"`
}

// WirePair is one matched tuple pair.
type WirePair struct {
	Relation string  `json:"relation"`
	LeftID   int64   `json:"left_id"`
	RightID  int64   `json:"right_id"`
	Score    float64 `json:"score"`
}

// ExplainResponse is a CompareResponse plus the match itself: the tuple
// mapping, the unmatched tuples, and the value mappings restricted to
// labeled nulls (values rendered with the "_:" marker).
type ExplainResponse struct {
	CompareResponse
	Pairs             []WirePair        `json:"pairs"`
	LeftUnmatched     []int64           `json:"left_unmatched"`
	RightUnmatched    []int64           `json:"right_unmatched"`
	LeftValueMapping  map[string]string `json:"left_value_mapping"`
	RightValueMapping map[string]string `json:"right_value_mapping"`
}

// RankRequest ranks registered instances against a registered example.
// Empty Candidates means every registered instance except the example.
type RankRequest struct {
	Example    string      `json:"example"`
	Candidates []string    `json:"candidates,omitempty"`
	Options    WireOptions `json:"options"`
	// MinValueOverlap, MaxSample, and PerCandidateTimeoutMS tune the
	// lake prefilter and per-candidate budget (see lake.Options).
	MinValueOverlap       float64 `json:"min_value_overlap,omitempty"`
	MaxSample             int     `json:"max_sample,omitempty"`
	PerCandidateTimeoutMS int64   `json:"per_candidate_timeout_ms,omitempty"`
	// Workers fans candidate comparisons out (0 or 1 = sequential).
	Workers int `json:"workers,omitempty"`
	// TopK and MinShortlist size the sketch-index shortlist as
	// max(4*top_k, min_shortlist); zero means the lake defaults (10 / 64).
	TopK         int `json:"top_k,omitempty"`
	MinShortlist int `json:"min_shortlist,omitempty"`
	// NoIndex forces a full scan, comparing every candidate: the recall
	// oracle, and the right call when scores beyond the top-k matter.
	NoIndex bool `json:"no_index,omitempty"`
	// DiscoverMapping compares drifted candidates under discovered
	// attribute mappings (see lake.Options.DiscoverMapping); ranked
	// results then report the per-candidate mapping confidence.
	DiscoverMapping bool `json:"discover_mapping,omitempty"`
}

// RankedResult is one ranked candidate.
type RankedResult struct {
	Name     string  `json:"name"`
	Score    float64 `json:"score"`
	Overlap  float64 `json:"overlap"`
	Pruned   bool    `json:"pruned,omitempty"`
	TimedOut bool    `json:"timed_out,omitempty"`
	// MappingConfidence is the discovered mapping's confidence when the
	// ranking ran with discover_mapping and this candidate's schema
	// drifted from the example's; 0 otherwise.
	MappingConfidence float64 `json:"mapping_confidence,omitempty"`
}

// RankIndexInfo reports how a ranking used the registry's sketch index
// (lake.IndexStats on the wire). FullScan = true means every candidate was
// compared — because the caller sent no_index, or the lake was no larger
// than the shortlist; candidates outside the shortlist otherwise come back
// with pruned = true and score 0.
type RankIndexInfo struct {
	FullScan      bool    `json:"full_scan"`
	Probed        int     `json:"probed,omitempty"`
	Widened       bool    `json:"widened,omitempty"`
	ShortlistSize int     `json:"shortlist_size"`
	Unindexed     int     `json:"unindexed,omitempty"`
	SketchBuildMS float64 `json:"sketch_build_ms,omitempty"`
}

// RankResponse reports a ranking, best candidate first.
type RankResponse struct {
	Example   string         `json:"example"`
	Results   []RankedResult `json:"results"`
	Index     RankIndexInfo  `json:"index"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

// InstanceInfo summarizes one registered instance.
type InstanceInfo struct {
	Name       string    `json:"name"`
	Relations  int       `json:"relations"`
	Tuples     int       `json:"tuples"`
	Nulls      int       `json:"nulls"`
	Registered time.Time `json:"registered"`
}

// RegisterRequest registers an instance under a name.
type RegisterRequest struct {
	Name     string       `json:"name"`
	Instance WireInstance `json:"instance"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}
