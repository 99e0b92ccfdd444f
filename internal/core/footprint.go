package core

import (
	"slices"
	"sort"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// Footprint is the part of a graph a Table 2 walk for one shape can read:
// the predicates it steps forward (s→o), the predicates it steps backward
// (o→s), and whether a closed(P) check reads every outgoing predicate of
// the node it runs at. It realizes the "properties mentioned in φ" of
// Lemma D.1 with their direction, following hasShape references through
// the schema; pair constraints (eq, disj, lessThan, lessThanEq, moreThan,
// moreThanEq) step their p forward.
//
// B(v, G, φ) and v's verdict depend only on edges some footprint walk from
// v reaches, which is what lets incremental maintenance re-extract Reach
// instead of every node sharing a component with the delta. A Footprint
// holds IRIs, not IDs: a delta may intern a predicate for the first time,
// so Reach resolves them against the snapshot it searches.
type Footprint struct {
	Forward  []string // predicate IRIs stepped subject → object, sorted
	Backward []string // predicate IRIs stepped object → subject, sorted
	Closed   bool     // closed(P) occurs: any outgoing edge is read
}

// NewFootprint computes the footprint of phi, resolving hasShape names
// through defs (which may be nil; an undefined name reads nothing, as it
// behaves as ⊤).
func NewFootprint(defs shape.Defs, phi shape.Shape) *Footprint {
	fwd := make(map[string]struct{})
	bwd := make(map[string]struct{})
	var addPath func(e paths.Expr, inverse bool)
	addPath = func(e paths.Expr, inverse bool) {
		switch x := e.(type) {
		case paths.Prop:
			if inverse {
				bwd[x.IRI] = struct{}{}
			} else {
				fwd[x.IRI] = struct{}{}
			}
		case paths.Inverse:
			addPath(x.X, !inverse)
		case paths.Seq:
			addPath(x.Left, inverse)
			addPath(x.Right, inverse)
		case paths.Alt:
			addPath(x.Left, inverse)
			addPath(x.Right, inverse)
		case paths.Star:
			addPath(x.X, inverse)
		case paths.ZeroOrOne:
			addPath(x.X, inverse)
		}
	}
	pair := func(e paths.Expr, p string) {
		if e != nil {
			addPath(e, false)
		}
		fwd[p] = struct{}{}
	}

	f := &Footprint{}
	seen := make(map[rdf.Term]struct{})
	pending := []shape.Shape{phi}
	for len(pending) > 0 {
		next := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		shape.Walk(next, func(s shape.Shape) {
			switch x := s.(type) {
			case *shape.HasShape:
				if _, done := seen[x.Name]; done || defs == nil {
					return
				}
				seen[x.Name] = struct{}{}
				if def, ok := defs.Def(x.Name); ok {
					pending = append(pending, def)
				}
			case *shape.MinCount:
				addPath(x.Path, false)
			case *shape.MaxCount:
				addPath(x.Path, false)
			case *shape.Forall:
				addPath(x.Path, false)
			case *shape.UniqueLang:
				addPath(x.Path, false)
			case *shape.Eq:
				pair(x.Path, x.P)
			case *shape.Disj:
				pair(x.Path, x.P)
			case *shape.LessThan:
				pair(x.Path, x.P)
			case *shape.LessThanEq:
				pair(x.Path, x.P)
			case *shape.MoreThan:
				pair(x.Path, x.P)
			case *shape.MoreThanEq:
				pair(x.Path, x.P)
			case *shape.Closed:
				f.Closed = true
			}
		})
	}
	f.Forward = sortedKeys(fwd)
	f.Backward = sortedKeys(bwd)
	return f
}

func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Reach returns, sorted, every node of g whose footprint walk can reach an
// edge of delta — the focus nodes whose neighborhood or verdict may differ
// between the epoch before delta and g, the epoch after it.
//
// The seeds are the endpoints a walk reads delta triples at: the subject of
// a triple on a forward predicate, the object of one on a backward
// predicate, and, when the footprint is Closed, the subject of any triple.
// Reach then walks footprint edges in reverse over g alone: the
// predecessors of y are Subjects(p, y) for a forward p and Objects(y, p)
// for a backward p. That suffices for walks in the old epoch too: the
// prefix of such a walk before its first deleted edge survives into g, and
// that deleted edge is a delta triple read at a seed.
//
// The result may name nodes no longer in N(g) (a deletion removed their
// last edge); their neighborhoods are empty in g.
func (f *Footprint) Reach(g rdfgraph.Reader, delta []rdfgraph.IDTriple) []rdfgraph.ID {
	fwd, bwd := resolvePredicates(g, f.Forward), resolvePredicates(g, f.Backward)
	seen := make(map[rdfgraph.ID]struct{})
	var stack []rdfgraph.ID
	push := func(v rdfgraph.ID) {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			stack = append(stack, v)
		}
	}
	for _, t := range delta {
		if f.Closed || slices.Contains(fwd, t.P) {
			push(t.S)
		}
		if slices.Contains(bwd, t.P) {
			push(t.O)
		}
	}
	for len(stack) > 0 {
		y := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range fwd {
			g.Subjects(p, y, push)
		}
		for _, p := range bwd {
			g.Objects(y, p, push)
		}
	}
	out := make([]rdfgraph.ID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// resolvePredicates maps predicate IRIs to g's IDs, dropping those g has
// never interned (no triple can use them).
func resolvePredicates(g rdfgraph.Reader, iris []string) []rdfgraph.ID {
	out := make([]rdfgraph.ID, 0, len(iris))
	for _, iri := range iris {
		if id := g.LookupTerm(rdf.NewIRI(iri)); id != rdfgraph.NoID {
			out = append(out, id)
		}
	}
	return out
}
