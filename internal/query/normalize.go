package query

import "intervaljoin/internal/relation"

// Normalize returns an equivalent query in which every condition uses the
// canonical direction of its predicate (Predicate.Canonical: before,
// meets, overlaps, contains, starts, finishes or equals) by swapping
// operands of inverse-form conditions. Relation order and indices are
// preserved; only conditions change. Normalisation makes queries
// comparable ("R2 after R1" and "R1 before R2" normalise identically up to
// operand order) and simplifies downstream pattern matching.
func (q *Query) Normalize() *Query {
	out := &Query{}
	// Schemas are immutable after parsing; copy the slice header level.
	out.Relations = make([]relation.Schema, len(q.Relations))
	copy(out.Relations, q.Relations)
	out.Conds = make([]Condition, len(q.Conds))
	for i, c := range q.Conds {
		out.Conds[i] = normalizeCondition(c)
	}
	return out
}

// normalizeCondition swaps the operands of inverse-form predicates.
func normalizeCondition(c Condition) Condition {
	if c.Pred.Canonical() {
		return c
	}
	return Condition{Left: c.Right, Pred: c.Pred.Inverse(), Right: c.Left}
}
