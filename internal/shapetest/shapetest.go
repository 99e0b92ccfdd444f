// Package shapetest provides random generators for graphs and shapes, used
// by property-based tests across the repository (NNF preservation,
// sufficiency, SPARQL-translation equivalence).
package shapetest

import (
	"math/rand"

	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
)

// Base is the IRI namespace used by generated graphs and shapes.
const Base = "http://test/"

// IRI returns an IRI in the test namespace.
func IRI(local string) rdf.Term { return rdf.NewIRI(Base + local) }

var nodeNames = []string{"a", "b", "c", "d", "e", "f"}
var propNames = []string{"p", "q", "r"}

// RandomTerm generates a random term across all three kinds. The universe
// is deliberately tiny so that collisions — equal values with different
// kinds, datatypes or language tags — are likely, which is where ordering
// and equality edge cases live.
func RandomTerm(rng *rand.Rand) rdf.Term {
	v := nodeNames[rng.Intn(3)]
	switch rng.Intn(6) {
	case 0:
		return IRI(nodeNames[rng.Intn(len(nodeNames))])
	case 1:
		return rdf.NewBlank(v)
	case 2:
		return rdf.NewString(v)
	case 3:
		return rdf.NewLangString(v, []string{"en", "nl", "en-us"}[rng.Intn(3)])
	case 4:
		return rdf.NewInteger(int64(rng.Intn(3)))
	default:
		return rdf.NewTypedLiteral(v,
			[]string{rdf.XSDDecimal, rdf.XSDBoolean, rdf.XSDString}[rng.Intn(3)])
	}
}

// RandomGraph generates a graph with roughly the given number of edges over
// a small universe of nodes and properties, mixing in literal objects with
// and without language tags so that uniqueLang/lessThan shapes are
// exercised.
func RandomGraph(rng *rand.Rand, edges int) *rdfgraph.Graph {
	g := rdfgraph.New()
	for i := 0; i < edges; i++ {
		g.Add(RandomTriple(rng))
	}
	return g
}

// RandomTriple generates one edge over RandomGraph's universe, so deltas
// drawn from it collide with the edges of a generated graph.
func RandomTriple(rng *rand.Rand) rdf.Triple {
	s := IRI(nodeNames[rng.Intn(len(nodeNames))])
	p := IRI(propNames[rng.Intn(len(propNames))])
	var o rdf.Term
	switch rng.Intn(10) {
	case 0:
		o = rdf.NewInteger(int64(rng.Intn(5)))
	case 1:
		o = rdf.NewLangString("w"+nodeNames[rng.Intn(3)], []string{"en", "nl"}[rng.Intn(2)])
	case 2:
		o = rdf.NewString(nodeNames[rng.Intn(3)])
	default:
		o = IRI(nodeNames[rng.Intn(len(nodeNames))])
	}
	return rdf.T(s, p, o)
}

// RandomPath generates a random path expression of bounded depth.
func RandomPath(rng *rand.Rand, depth int) paths.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		return paths.P(Base + propNames[rng.Intn(len(propNames))])
	}
	switch rng.Intn(5) {
	case 0:
		return paths.Inv(RandomPath(rng, depth-1))
	case 1:
		return paths.Seq{Left: RandomPath(rng, depth-1), Right: RandomPath(rng, depth-1)}
	case 2:
		return paths.Alt{Left: RandomPath(rng, depth-1), Right: RandomPath(rng, depth-1)}
	case 3:
		return paths.Star{X: RandomPath(rng, depth-1)}
	default:
		return paths.ZeroOrOne{X: RandomPath(rng, depth-1)}
	}
}

// RandomShape generates a random shape of bounded depth covering every
// construct of the grammar, including negation (so NNF rewriting is
// meaningfully exercised).
func RandomShape(rng *rand.Rand, depth int) shape.Shape {
	if depth <= 0 {
		return randomAtom(rng)
	}
	switch rng.Intn(8) {
	case 0:
		return shape.Neg(RandomShape(rng, depth-1))
	case 1:
		return shape.AndOf(RandomShape(rng, depth-1), RandomShape(rng, depth-1))
	case 2:
		return shape.OrOf(RandomShape(rng, depth-1), RandomShape(rng, depth-1))
	case 3:
		return shape.Min(rng.Intn(3), RandomPath(rng, 2), RandomShape(rng, depth-1))
	case 4:
		return shape.Max(rng.Intn(3), RandomPath(rng, 2), RandomShape(rng, depth-1))
	case 5:
		return shape.All(RandomPath(rng, 2), RandomShape(rng, depth-1))
	default:
		return randomAtom(rng)
	}
}

func randomAtom(rng *rand.Rand) shape.Shape {
	p := Base + propNames[rng.Intn(len(propNames))]
	switch rng.Intn(14) {
	case 12:
		return shape.More(paths.P(p), Base+propNames[rng.Intn(len(propNames))])
	case 13:
		return shape.MoreEq(paths.P(p), Base+propNames[rng.Intn(len(propNames))])
	case 0:
		return shape.TrueShape()
	case 1:
		return shape.FalseShape()
	case 2:
		return shape.Value(IRI(nodeNames[rng.Intn(len(nodeNames))]))
	case 3:
		return shape.NodeTestShape(shape.IsIRI{})
	case 4:
		return shape.NodeTestShape(shape.IsLiteral{})
	case 5:
		return shape.EqPath(RandomPath(rng, 1), p)
	case 6:
		return shape.EqID(p)
	case 7:
		return shape.DisjPath(RandomPath(rng, 1), p)
	case 8:
		return shape.DisjID(p)
	case 9:
		return shape.ClosedShape(Base+"p", Base+"q")
	case 10:
		return shape.UniqueLangShape(paths.P(p))
	default:
		return shape.Less(paths.P(p), Base+propNames[rng.Intn(len(propNames))])
	}
}
