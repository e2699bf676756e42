package instcmp

import "instcmp/internal/model"

// alignSchemas rebuilds both instances over the union schema: relations in
// left-then-right order, attributes per relation in left-then-right order.
// Cells for attributes a side lacks are filled with fresh, pairwise
// distinct nulls, which is the paper's recipe for comparing instances whose
// schemas differ: the padded attribute constrains nothing.
func alignSchemas(l, r *Instance) (*Instance, *Instance) {
	type relSchema struct {
		name  string
		attrs []string
	}
	var order []relSchema
	pos := map[string]int{}
	addRel := func(rel *Relation) {
		i, ok := pos[rel.Name]
		if !ok {
			pos[rel.Name] = len(order)
			order = append(order, relSchema{name: rel.Name, attrs: append([]string(nil), rel.Attrs...)})
			return
		}
		have := map[string]bool{}
		for _, a := range order[i].attrs {
			have[a] = true
		}
		for _, a := range rel.Attrs {
			if !have[a] {
				order[i].attrs = append(order[i].attrs, a)
			}
		}
	}
	for _, rel := range l.Relations() {
		addRel(rel)
	}
	for _, rel := range r.Relations() {
		addRel(rel)
	}

	rebuild := func(src *Instance, padPrefix string) *Instance {
		out := model.NewInstance()
		// Padding is minted row by row while src's tuples are still being
		// copied over, so a later row could carry a user null whose name the
		// counter has already handed out. Reserving src's nulls up front
		// closes that window: FreshNull skips every name that will ever be
		// appended.
		out.ReserveNullsFrom(src)
		for _, rs := range order {
			out.AddRelation(rs.name, rs.attrs...)
			srcRel := src.Relation(rs.name)
			if srcRel == nil {
				continue
			}
			srcIdx := make([]int, len(rs.attrs))
			for i, a := range rs.attrs {
				srcIdx[i] = srcRel.AttrIndex(a)
			}
			for _, t := range srcRel.Tuples {
				vals := make([]Value, len(rs.attrs))
				for i, si := range srcIdx {
					if si < 0 {
						vals[i] = out.FreshNull(padPrefix)
					} else {
						vals[i] = t.Values[si]
					}
				}
				out.Append(rs.name, vals...)
				// Preserve the original identifier.
				rel := out.Relation(rs.name)
				rel.Tuples[len(rel.Tuples)-1].ID = t.ID
			}
		}
		return out
	}
	// The unicode-marked prefixes keep padding nulls readable and out of
	// ordinary namespaces, but freshness does not rely on the convention:
	// FreshNull skips names already present, so even a user null literally
	// named "pad·l·1" stays distinct from the padding.
	return rebuild(l, "pad·l·"), rebuild(r, "pad·r·")
}
