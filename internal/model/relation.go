package model

import (
	"fmt"
	"slices"
	"strings"
)

// Relation is a named relation: an attribute list (the schema) and a list of
// tuples. Tuples are stored in insertion order; order carries no semantics.
type Relation struct {
	Name   string
	Attrs  []string
	Tuples []Tuple
}

// Arity returns the number of attributes of the relation.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Cardinality returns the number of tuples in the relation.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// Size returns |r| * arity(r), the paper's Def. 5.1 size of a relation.
func (r *Relation) Size() int { return len(r.Tuples) * len(r.Attrs) }

// AttrIndex returns the position of the named attribute, or -1 if absent.
func (r *Relation) AttrIndex(attr string) int {
	return slices.Index(r.Attrs, attr)
}

// Tuple returns the tuple with the given identifier, or nil if absent.
func (r *Relation) Tuple(id TupleID) *Tuple {
	for i := range r.Tuples {
		if r.Tuples[i].ID == id {
			return &r.Tuples[i]
		}
	}
	return nil
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		Name:   r.Name,
		Attrs:  slices.Clone(r.Attrs),
		Tuples: make([]Tuple, len(r.Tuples)),
	}
	for i := range r.Tuples {
		c.Tuples[i] = r.Tuples[i].Clone()
	}
	return c
}

// String renders the relation header and tuples, one per line.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s)\n", r.Name, strings.Join(r.Attrs, ", "))
	for _, t := range r.Tuples {
		fmt.Fprintf(&b, "  t%d %s\n", t.ID, t.String())
	}
	return b.String()
}
