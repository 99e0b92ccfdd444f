package main

import (
	"crypto/sha256"
	"sync"

	"shaclfrag/internal/core"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/turtle"
)

// The correctness checks run after the timed window. The reference is the
// Table 2 AST walker (core.Extractor) on a fresh copy of the generated
// graph, serialized by turtle.NTriplesWriter: the bytes the server must
// have sent.

// referenceSum returns the digest of the reference answer to a read.
func referenceSum(x *core.Extractor, requests []shape.Shape, defs []shape.Shape, o op) [sha256.Size]byte {
	var ts []rdf.Triple
	switch o.kind {
	case opFragment:
		ts = x.Fragment(requests[o.def : o.def+1])
	case opNode:
		if id, ok := x.FocusID(o.node); ok {
			set := rdfgraph.NewIDTripleSet()
			for i, phi := range defs {
				if o.def < 0 || o.def == i {
					x.NeighborhoodInto(id, phi, set, map[core.VisitKey]struct{}{})
				}
			}
			ts = set.Triples(x.Graph().Dict())
		}
	}
	h := sha256.New()
	nw := turtle.NewNTriplesWriter(h)
	for _, t := range ts {
		nw.WriteTriple(t) //nolint:errcheck — a hash never fails
	}
	nw.Flush() //nolint:errcheck — a hash never fails
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// checkReads compares every distinct read response with its reference and
// returns how many differ. Two workers split the targets, each on its own
// graph copy (the AST walker interns focus terms, so copies are private).
func checkReads(ds *dataset, seen map[string]response) int {
	var targets []response
	for _, r := range seen {
		targets = append(targets, r)
	}
	const workers = 2
	bad := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := core.NewExtractor(ds.graph(), ds.schema)
			requests := core.SchemaRequests(ds.schema)
			defs := defShapes(ds)
			for i := w; i < len(targets); i += workers {
				if referenceSum(x, requests, defs, targets[i].o) != targets[i].sum {
					bad[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	return bad[0] + bad[1]
}

func defShapes(ds *dataset) []shape.Shape {
	var out []shape.Shape
	for _, d := range ds.schema.Definitions() {
		out = append(out, d.Shape)
	}
	return out
}

// finalGraph replays the first n updates onto a fresh graph copy.
func finalGraph(ds *dataset, n int) *rdfgraph.Graph {
	g := ds.graph()
	for k := 0; k < n; k++ {
		o := ds.write(k)
		if o.del {
			g.Remove(o.triple)
		} else {
			g.Add(o.triple)
		}
	}
	return g
}

// checkFollowers compares each subscription's folded events with the
// reference fragment of its shape on the graph after n updates, returning
// the number of subscriptions that differ.
func checkFollowers(ds *dataset, fs []*follower, n int) int {
	x := core.NewExtractor(finalGraph(ds, n), ds.schema)
	requests := core.SchemaRequests(ds.schema)
	bad := 0
	for _, f := range fs {
		want := map[string]bool{}
		for _, t := range x.Fragment(requests[f.def : f.def+1]) {
			want[t.String()+" ."] = true
		}
		if f.bad > 0 || !sameSet(want, f.lines) {
			bad++
		}
	}
	return bad
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
