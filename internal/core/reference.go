package core

import (
	"intervaljoin/internal/mr"
	"intervaljoin/internal/relation"
)

// Reference is the correctness oracle: a direct in-memory backtracking
// nested-loop join, with no MapReduce involved. Every distributed algorithm
// in this package must produce exactly Reference's output set; the property
// tests enforce this.
type Reference struct{}

// Name implements Algorithm.
func (Reference) Name() string { return "reference" }

// Run implements Algorithm.
func (Reference) Run(ctx *Context) (*Result, error) {
	res := &Result{Algorithm: "reference", Metrics: mr.NewMetrics("reference")}
	res.Metrics.Cycles = 0
	rels := allRelations(len(ctx.Rels))
	cands := make([][]relation.Tuple, len(ctx.Rels))
	for i, r := range ctx.Rels {
		cands[i] = r.Tuples
	}
	e := newEnumerator(ctx.Query.Conds, rels)
	rows := ctx.packing.rows()
	err := e.run(cands, func(asg []relation.Tuple) error {
		ctx.packing.put(rows, rels, asg)
		return nil
	})
	res.setRows(rows, &ctx.packing, nil, true)
	return res, err
}
