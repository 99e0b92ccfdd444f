package plan

import (
	"fmt"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
)

// Strategy is one way to extract a shape's fragment in-process.
type Strategy int

const (
	// StrategyPlan runs the compiled instruction program with dense memo
	// rows — the serving engine.
	StrategyPlan Strategy = iota
	// StrategyDirect walks the shape AST with the map-memoized evaluator:
	// slower per node but with memory proportional to nodes actually
	// touched. PlanSchema routes a definition here only when its dense
	// memo would exceed the budget.
	StrategyDirect
)

func (s Strategy) String() string {
	if s == StrategyDirect {
		return "direct"
	}
	return "plan"
}

// DefaultMemoBudget bounds the dense memo memory one bound program may
// allocate (per worker — every worker binds its own). Programs whose rows
// would exceed it fall back to StrategyDirect, whose memo grows with the
// nodes actually visited instead of the dictionary size.
const DefaultMemoBudget = 64 << 20

// Config tunes PlanSchema.
type Config struct {
	// MemoBudget caps MemoBytes per bound program; 0 means
	// DefaultMemoBudget, negative means unlimited. It is priced once,
	// against the dictionary size PlanSchema is given: a server that
	// plans at load keeps its verdicts as updates grow the dictionary.
	// Memo rows allocate lazily, so a bound program only pins rows up to
	// the IDs extraction actually touches.
	MemoBudget int64
}

// Decision is PlanSchema's verdict for one shape definition.
type Decision struct {
	Name     rdf.Term
	Strategy Strategy
	// Program is the compiled program; always present (the disassembler
	// and parity suites want it even for direct-routed definitions).
	Program *Program
	// MemoBytes is the dense-row memory the program would pin.
	MemoBytes int64
	// Reason is a one-line explanation of the verdict.
	Reason string
}

// SchemaPlan is PlanSchema's output for a whole schema: one decision per
// definition, in definition order.
type SchemaPlan struct {
	Decisions []Decision
}

// ProgramSet returns the compiled programs in definition order (the order
// of core.SchemaRequests), with nil entries for definitions routed to the
// AST walker — exactly the shape core.ParallelOptions.Plans expects.
func (sp *SchemaPlan) ProgramSet() *Set {
	s := &Set{Programs: make([]*Program, len(sp.Decisions))}
	for i, d := range sp.Decisions {
		if d.Strategy == StrategyPlan {
			s.Programs[i] = d.Program
		}
	}
	return s
}

// Counts returns how many definitions landed on each strategy.
func (sp *SchemaPlan) Counts() map[Strategy]int {
	out := make(map[Strategy]int, 2)
	for _, d := range sp.Decisions {
		out[d.Strategy]++
	}
	return out
}

// PlanSchema compiles every definition of h and routes each program to
// the AST walker when its dense memo, sized against st.DictTerms, exceeds
// cfg.MemoBudget; every other definition runs on its compiled plan.
// Programs depend only on the schema, so a caller plans once per schema;
// the budget is priced against the dictionary st describes and not
// revisited.
func PlanSchema(h *schema.Schema, st store.CardStats, cfg Config) *SchemaPlan {
	budget := cfg.MemoBudget
	if budget == 0 {
		budget = DefaultMemoBudget
	}
	defs := h.Definitions()
	sp := &SchemaPlan{Decisions: make([]Decision, len(defs))}
	for i, d := range defs {
		prog := Compile(shape.AndOf(d.Shape, d.Target), h)
		dec := Decision{Name: d.Name, Program: prog, MemoBytes: prog.MemoBytes(st.DictTerms)}
		if budget >= 0 && dec.MemoBytes > budget {
			dec.Strategy = StrategyDirect
			dec.Reason = fmt.Sprintf("memo %dB over budget %dB", dec.MemoBytes, budget)
		} else {
			dec.Reason = fmt.Sprintf("memo %dB within budget", dec.MemoBytes)
		}
		sp.Decisions[i] = dec
	}
	return sp
}
