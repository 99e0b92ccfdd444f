package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/shapetest"
)

// TestFootprint pins the direction rules: inverse paths flip, pair
// constraints step their p forward, closed sets the flag, and hasShape
// references are followed through the schema.
func TestFootprint(t *testing.T) {
	inner := iri("Inner")
	h := schema.MustNew(schema.Definition{
		Name:  inner,
		Shape: shape.AndOf(shape.Min(1, paths.Inv(p("up")), shape.TrueShape()), shape.ClosedShape(base+"a")),
	})
	phi := shape.AndOf(
		shape.All(paths.SeqOf(p("a"), paths.Star{X: paths.Inv(paths.SeqOf(p("b"), paths.Inv(p("c"))))}), shape.Ref(inner)),
		shape.Less(p("d"), base+"e"),
		shape.EqID(base+"f"),
	)
	fp := core.NewFootprint(h, phi)
	want := &core.Footprint{
		Forward:  []string{base + "a", base + "c", base + "d", base + "e", base + "f"},
		Backward: []string{base + "b", base + "up"},
		Closed:   true,
	}
	if !reflect.DeepEqual(fp, want) {
		t.Fatalf("footprint = %+v, want %+v", fp, want)
	}
	if fp := core.NewFootprint(nil, phi); fp.Closed || len(fp.Backward) != 1 {
		t.Fatalf("without a schema the reference must read nothing: %+v", fp)
	}
}

// TestFootprintSound is the footprint soundness property gate: for random
// (graph, shape, delta) triples, every node whose neighborhood differs
// between the epochs before and after the delta, and every node staying in
// N(G) whose verdict differs, must be in the footprint's reach. A third of
// the trials request a shape that reaches further shapes through hasShape
// references, so reference-following is exercised.
func TestFootprintSound(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const trials = 3000
	changed := 0
	for trial := 0; trial < trials; trial++ {
		g := shapetest.RandomGraph(rng, 8+rng.Intn(6))
		var defs shape.Defs
		phi := shapetest.RandomShape(rng, 3)
		if trial%3 == 0 {
			h, request := refSchema(rng)
			defs, phi = h, request
		}
		st := rdfgraph.NewStore(g)
		old := st.Current().Graph()
		res := st.Apply(randomDelta(rng, old))
		if !res.Changed {
			continue
		}
		ng := res.Snapshot.Graph()
		reach := make(map[rdfgraph.ID]struct{})
		for _, v := range core.NewFootprint(defs, phi).Reach(ng, res.Delta) {
			reach[v] = struct{}{}
		}

		xo, xn := core.NewExtractor(old, defs), core.NewExtractor(ng, defs)
		for _, v := range nodeTerms(old, ng) {
			id := ng.LookupTerm(v)
			_, reached := reach[id]
			before, after := xo.Neighborhood(v, phi), xn.Neighborhood(v, phi)
			if !reflect.DeepEqual(before, after) {
				changed++
				if !reached {
					t.Fatalf("trial %d: B(%s) changed but %s is outside the reach\nφ = %s\ndelta = %v\nbefore %v\nafter  %v",
						trial, v, v, phi, res.Delta, before, after)
				}
			}
			oid := old.LookupTerm(v)
			if oid == rdfgraph.NoID || !old.IsNode(oid) || !ng.IsNode(id) {
				continue
			}
			if xo.Evaluator().Conforms(oid, phi) != xn.Evaluator().Conforms(id, phi) && !reached {
				t.Fatalf("trial %d: verdict of %s changed but it is outside the reach\nφ = %s\ndelta = %v",
					trial, v, phi, res.Delta)
			}
		}
	}
	if changed < trials/4 {
		t.Fatalf("only %d changed neighborhoods over %d trials; generator too weak", changed, trials)
	}
}

// refSchema builds a three-definition chain S0 → S1 → S2 of hasShape
// references through random paths and returns it with a request that
// reaches S0 through another path.
func refSchema(rng *rand.Rand) (*schema.Schema, shape.Shape) {
	s0, s1, s2 := shapetest.IRI("S0"), shapetest.IRI("S1"), shapetest.IRI("S2")
	h := schema.MustNew(
		schema.Definition{Name: s2, Shape: shapetest.RandomShape(rng, 3)},
		schema.Definition{Name: s1, Shape: shape.AndOf(shapetest.RandomShape(rng, 2),
			shape.Min(1, shapetest.RandomPath(rng, 2), shape.Ref(s2)))},
		schema.Definition{Name: s0, Shape: shape.OrOf(shape.Neg(shape.Ref(s1)),
			shape.All(shapetest.RandomPath(rng, 2), shape.Ref(s1)))},
	)
	request := shape.AndOf(shapetest.RandomShape(rng, 2),
		shape.Min(rng.Intn(2), shapetest.RandomPath(rng, 2), shape.Ref(s0)))
	return h, request
}

// randomDelta draws one to three operations: deletions of existing edges
// and additions over the generator's universe.
func randomDelta(rng *rand.Rand, g *rdfgraph.Graph) rdfgraph.Delta {
	var d rdfgraph.Delta
	existing := g.Triples()
	for n := 1 + rng.Intn(3); n > 0; n-- {
		if rng.Intn(2) == 0 && len(existing) > 0 {
			d.Del = append(d.Del, existing[rng.Intn(len(existing))])
		} else {
			d.Add = append(d.Add, shapetest.RandomTriple(rng))
		}
	}
	return d
}

// nodeTerms returns N(old) ∪ N(new) as terms.
func nodeTerms(old, ng *rdfgraph.Graph) []rdf.Term {
	seen := make(map[rdf.Term]struct{})
	var out []rdf.Term
	for _, g := range []*rdfgraph.Graph{old, ng} {
		for _, id := range g.NodeIDs() {
			v := g.Term(id)
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		}
	}
	return out
}
