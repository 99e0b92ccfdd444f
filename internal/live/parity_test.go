package live_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"shaclfrag/internal/core"
	"shaclfrag/internal/datagen"
	"shaclfrag/internal/live"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shaclsyn"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
	"shaclfrag/internal/turtle"
)

// parityCase is one schema with the graph it is maintained over and the
// predicates its random deltas draw from; scripted deltas replace the
// random one at their step.
type parityCase struct {
	name     string
	h        *schema.Schema
	graph    func() *rdfgraph.Graph
	preds    []string
	scripted map[int]rdfgraph.Delta
}

// TestLiveParity maintains every definition of real schemas — the 57
// benchmark shapes on a small Tyrol graph and each examples/shapes schema —
// through a seeded add/delete sequence, and after every step checks each
// maintained fragment against a cold AST-walker extraction of the new
// epoch. Maintenance runs the compiled plans through a carried serving
// cache, as in fragserver, on the single backend and on four shards (whose
// Apply must report the delta too). The Tyrol deltas touch name, rdf:type,
// location, review, knows, inDistrict and subOrganizationOf, and one
// removes and restores a subClassOf edge, so targets through subClassOf*,
// inverse paths, star paths and closed shapes all see changes.
func TestLiveParity(t *testing.T) {
	steps := 24
	if testing.Short() {
		steps = 10
	}
	cases := append([]parityCase{tyrolCase()}, exampleCases(t)...)
	backends := []store.Config{
		{Backend: store.BackendSingle},
		{Backend: store.BackendSharded, Shards: 4},
	}
	for i, c := range cases {
		for _, cfg := range backends {
			t.Run(c.name+"/"+cfg.Backend, func(t *testing.T) {
				runParity(t, c, cfg, int64(i+1), steps)
			})
		}
	}
}

func runParity(t *testing.T, c parityCase, cfg store.Config, seed int64, steps int) {
	g := c.graph()
	store.WarmDictionary(g, c.h)
	st, err := store.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requests := core.SchemaRequests(c.h)
	plans := plan.CompileAll(requests, c.h)
	cache := core.NewNeighborhoodCache(1 << 20)
	m := live.NewMaintainer(live.Config{
		Schema:   c.h,
		Requests: requests,
		Cache:    cache,
		Plans:    func(def int) *plan.Program { return plans.Programs[def] },
		Queue:    steps + 1,
	}, st.Current())
	for def := range requests {
		sub, _, err := m.Subscribe(def, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Unsubscribe(sub)
	}

	rng := rand.New(rand.NewSource(seed))
	moved := 0
	for step := 0; step < steps; step++ {
		d, ok := c.scripted[step]
		if !ok {
			d = randomDelta(rng, st.Current().Reader(), c.preds)
		}
		res := st.Apply(d)
		if res.Changed {
			cache.Carry(res.Prev, res.Snapshot.Epoch(), res.Unaffected)
		}
		ns := m.Notify(res, nil)
		moved += ns.Added + ns.Removed
		reader := st.Current().Reader()
		for def, request := range requests {
			if got, want := m.FragmentLines(def), coldFragment(reader, c.h, request); !equalLines(got, want) {
				t.Fatalf("step %d (%+v): %s diverged from cold extraction\ngot  %d lines\nwant %d lines",
					step, d, c.h.Definitions()[def].Name, len(got), len(want))
			}
		}
	}
	if moved == 0 {
		t.Fatal("no delta moved any maintained fragment; the sequence tests nothing")
	}
}

// coldFragment renders Frag(G, {request}) from scratch on the AST walker.
func coldFragment(g rdfgraph.Reader, h *schema.Schema, request shape.Shape) []string {
	ts := core.NewExtractor(g, h).Fragment([]shape.Shape{request})
	sort.Slice(ts, func(i, j int) bool { return rdf.CompareTriples(ts[i], ts[j]) < 0 })
	out := make([]string, 0, len(ts))
	for _, tr := range ts {
		out = append(out, tr.String()+" .")
	}
	return out
}

// randomDelta draws one to three operations on preds: deletions of
// existing edges, and additions between existing IRI subjects (or a fresh
// one) and existing nodes (or a fresh literal).
func randomDelta(rng *rand.Rand, g rdfgraph.Reader, preds []string) rdfgraph.Delta {
	var subjects, objects []rdf.Term
	for _, id := range g.NodeIDs() {
		v := g.Term(id)
		objects = append(objects, v)
		if v.IsIRI() {
			subjects = append(subjects, v)
		}
	}
	var d rdfgraph.Delta
	for n := 1 + rng.Intn(3); n > 0; n-- {
		p := rdf.NewIRI(preds[rng.Intn(len(preds))])
		if rng.Intn(2) == 0 {
			if pid := g.LookupTerm(p); pid != rdfgraph.NoID {
				if es := g.EdgesByPredicate(pid); len(es) > 0 {
					e := es[rng.Intn(len(es))]
					d.Del = append(d.Del, rdf.T(g.Term(e.S), p, g.Term(e.O)))
					continue
				}
			}
		}
		s := subjects[rng.Intn(len(subjects))]
		if rng.Intn(8) == 0 {
			s = rdf.NewIRI(fmt.Sprintf("http://fresh.example/%d", rng.Intn(4)))
		}
		o := objects[rng.Intn(len(objects))]
		if rng.Intn(8) == 0 {
			o = rdf.NewLangString(fmt.Sprintf("fresh %d", rng.Intn(4)), []string{"en", "de"}[rng.Intn(2)])
		}
		d.Add = append(d.Add, rdf.T(s, p, o))
	}
	return d
}

func tyrolCase() parityCase {
	subClass := rdf.T(datagen.ClassHotel, rdf.NewIRI(rdf.RDFSSubClassOf), datagen.ClassLodging)
	return parityCase{
		name: "tyrol-benchmark",
		h:    datagen.BenchmarkSchema(),
		graph: func() *rdfgraph.Graph {
			return datagen.Tyrol(datagen.TyrolConfig{Individuals: 120, Seed: 3})
		},
		preds: []string{
			datagen.PropName, rdf.RDFType, datagen.PropLocation, datagen.PropReview,
			datagen.PropKnows, datagen.PropInDistrict, datagen.PropSubOrgOf,
		},
		scripted: map[int]rdfgraph.Delta{
			3: {Del: []rdf.Triple{subClass}},
			6: {Add: []rdf.Triple{subClass}},
		},
	}
}

// exampleData names the data graph each example schema is maintained
// over; a new examples/shapes file needs an entry here.
var exampleData = map[string]string{
	"tourism.ttl": "", // examples/data/tourism.ttl
	"workshop.ttl": `@prefix ex: <http://example.org/> .
ex:paper1 a ex:Paper ; ex:author ex:alice , ex:bob .
ex:paper2 a ex:Paper ; ex:author ex:carol .
ex:paper3 a ex:Paper .
ex:alice a ex:Student .
ex:carol a ex:Professor .
ex:bob ex:author ex:paper3 .
`,
}

func exampleCases(t *testing.T) []parityCase {
	t.Helper()
	files, err := filepath.Glob("../../examples/shapes/*.ttl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example schemas found: %v", err)
	}
	var out []parityCase
	for _, f := range files {
		name := filepath.Base(f)
		data, ok := exampleData[name]
		if !ok {
			t.Fatalf("example schema %s has no parity data graph", name)
		}
		if data == "" {
			data = readFile(t, filepath.Join("../../examples/data", name))
		}
		h, err := shaclsyn.ParseSchema(readFile(t, f))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ts, err := turtle.ParseTriples(data)
		if err != nil {
			t.Fatalf("%s data: %v", name, err)
		}
		preds := map[string]struct{}{}
		for _, tr := range ts {
			preds[tr.P.Value] = struct{}{}
		}
		for _, d := range h.Definitions() {
			for p := range shape.MentionedProperties(shape.AndOf(d.Shape, d.Target)) {
				preds[p] = struct{}{}
			}
		}
		var predList []string
		for p := range preds {
			predList = append(predList, p)
		}
		sort.Strings(predList)
		out = append(out, parityCase{
			name:  name,
			h:     h,
			graph: func() *rdfgraph.Graph { return rdfgraph.FromTriples(ts) },
			preds: predList,
		})
	}
	return out
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
