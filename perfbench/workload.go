package main

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strings"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
)

// opKind is the HTTP operation an op issues.
type opKind uint8

const (
	opFragment opKind = iota // GET /fragment?shape=<def>
	opNode                   // GET /node?iri=<node>[&shape=<def>]
	opUpdate                 // POST /update[?op=delete] with one triple
)

// op is one operation of a workload's seeded sequence.
type op struct {
	kind   opKind
	def    int        // definition index; -1 on /node asks for every definition
	node   rdf.Term   // focus of /node
	del    bool       // /update deletes instead of adding
	triple rdf.Triple // /update body
}

// dataset is everything one workload sends to the server, generated from
// the seed. The server receives only these inputs.
type dataset struct {
	// graph returns a fresh, mutable copy of the data graph; every server,
	// replay and reference extraction gets its own.
	graph        func() *rdfgraph.Graph
	schema       *schema.Schema
	names        []string // per definition: the ?shape= parameter naming it
	cacheTriples int      // fragserver.Config.CacheTriples

	clients int               // closed-loop read connections
	read    func(i uint64) op // the i-th read of the sequence
	warm    []op              // sent before timing, to fill caches

	writeRate float64        // open-loop updates per second; 0 for none
	write     func(k int) op // the k-th update
	subs      []int          // definitions subscribed to in process

	// The traced replay runs replayOps operations of the sequence,
	// inserting one update after every readsPerWrite reads when the
	// workload writes.
	replayOps     int
	readsPerWrite int
}

// path renders the op's request target.
func (o op) path(ds *dataset) string {
	switch o.kind {
	case opFragment:
		return "/fragment?shape=" + url.QueryEscape(ds.names[o.def])
	case opNode:
		p := "/node?iri=" + url.QueryEscape("<"+o.node.Value+">")
		if o.def >= 0 {
			p += "&shape=" + url.QueryEscape(ds.names[o.def])
		}
		return p
	default:
		if o.del {
			return "/update?op=delete"
		}
		return "/update"
	}
}

// body is the N-Triples document an update posts.
func (o op) body() string { return o.triple.String() + " .\n" }

// workload is one traffic mix.
type workload struct {
	name  string
	build func(seed int64) (*dataset, error)
}

var workloads = []workload{
	{"fragment-scan", fragmentScan},
	{"node-warm", nodeWarm},
	{"hub-paths", hubPaths},
	{"update-mix", updateMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Graph sizes. tyrolLarge (~36K triples) gives /fragment a per-(node,
// shape) working set beyond the default one-million-triple neighborhood
// cache; tyrolSmall (~14.5K triples) fits it after warm-up.
const (
	tyrolLarge = 5000
	tyrolSmall = 2000
	// The Fig. 3 slice: papers from coauthorYear on, ~1.8K triples, of
	// one fixed corpus. The preferential-attachment generator's hub
	// neighborhood differs so much between corpus seeds that the median
	// hub-paths latency moved 2× across seeds 1–5 (0.57–1.5 ms), which
	// would drown any change to the program; so the corpus is fixed, as in
	// the repository's other Fig. 3 benchmarks, and --seed draws the
	// request sequence.
	coauthorPapers = 2000
	coauthorYear   = 2019
	coauthorSeed   = 42
)

// splitmix64 is the output function of the SplitMix64 generator: a
// bijective mixer that turns a counter into well-spread bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the i-th pseudo-random word of the given stream of seed:
// the sequence is a pure function of (seed, stream, i), so any client can
// compute any position without shared generator state.
func draw(seed int64, stream, i uint64) uint64 {
	return splitmix64(splitmix64(uint64(seed)^stream*0x2545f4914f6cdd1d) ^ i)
}

// unit maps a word to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Streams of draw, one per independent choice.
const (
	streamRead uint64 = iota + 1
	streamShape
	streamPerm
	streamWrite
)

// permute returns terms in a seeded order.
func permute(seed int64, stream uint64, terms []rdf.Term) []rdf.Term {
	out := append([]rdf.Term(nil), terms...)
	for i := len(out) - 1; i > 0; i-- {
		j := int(draw(seed, stream, uint64(i)) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// zipf draws ranks in [0, n) with P(r) ∝ 1/(r+1)^s by inverse CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return zipf{cdf}
}

func (z zipf) rank(u float64) int {
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// subjectsOf lists, sorted, the distinct subjects of p, or with a
// non-zero object only those of triples (s, p, object).
func subjectsOf(g *rdfgraph.Graph, p string, object rdf.Term) []rdf.Term {
	oid := g.LookupTerm(object)
	seen := map[rdfgraph.ID]bool{}
	var out []rdf.Term
	for _, e := range g.EdgesByPredicate(g.LookupTerm(rdf.NewIRI(p))) {
		if seen[e.S] || (object != (rdf.Term{}) && e.O != oid) {
			continue
		}
		seen[e.S] = true
		out = append(out, g.Term(e.S))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// shortNames derives each definition's ?shape= parameter: the IRI's last
// path segment, which the server resolves by unique suffix.
func shortNames(h *schema.Schema) []string {
	var out []string
	for _, d := range h.Definitions() {
		v := d.Name.Value
		out = append(out, v[strings.LastIndexAny(v, "/#")+1:])
	}
	return out
}

func tyrolGraph(seed int64, n int) func() *rdfgraph.Graph {
	return func() *rdfgraph.Graph {
		return datagen.Tyrol(datagen.TyrolConfig{Individuals: n, Seed: seed})
	}
}

// typedIndividuals lists the subjects of rdf:type in a seeded order.
func typedIndividuals(seed int64, g *rdfgraph.Graph) []rdf.Term {
	return permute(seed, streamPerm, subjectsOf(g, rdf.RDFType, rdf.Term{}))
}

// fragmentScan: two closed-loop clients fetch whole-shape fragments,
// uniform over the 57 benchmark shapes, on the large tourism graph.
func fragmentScan(seed int64) (*dataset, error) {
	h := datagen.BenchmarkSchema()
	ds := &dataset{
		graph:     tyrolGraph(seed, tyrolLarge),
		schema:    h,
		names:     shortNames(h),
		clients:   2,
		replayOps: 40,
	}
	shapes := shapeBlocks(seed, h.Len(), 4)
	ds.read = func(i uint64) op { return op{kind: opFragment, def: shapes(i)} }
	warm := shapeBlocks(seed, h.Len(), 1)
	for i := 0; i < h.Len(); i++ {
		ds.warm = append(ds.warm, op{kind: opFragment, def: warm(uint64(i))})
	}
	return ds, nil
}

// shapeBlocks returns a sequence of definition indexes cut into aligned
// blocks of n×m positions, each holding every index m times in a seeded
// order. Any window of the sequence then requests every shape about
// equally often, so the latency mix does not hinge on which shapes chance
// favoured; with m > 1 a shape can recur soon after itself, as under
// uniform draws, instead of only after a full cycle (which would defeat
// an LRU cache by construction).
func shapeBlocks(seed int64, n, m int) func(i uint64) int {
	size := uint64(n * m)
	return func(i uint64) int {
		block, pos := i/size, i%size
		perm := make([]int, size)
		for j := range perm {
			perm[j] = j % n
		}
		for j := len(perm) - 1; j > 0; j-- {
			k := int(draw(seed, streamShape, block*size+uint64(j)) % uint64(j+1))
			perm[j], perm[k] = perm[k], perm[j]
		}
		return perm[pos]
	}
}

// zipfS is the skew of /node reads: the hottest of 2000 nodes draws ~5%
// of them, the ten hottest ~20%, so no single node's neighborhood sets
// the median.
const zipfS = 0.8

// zipfNodes returns a read function drawing /node requests (all
// definitions) Zipf-skewed over nodes.
func zipfNodes(seed int64, nodes []rdf.Term) func(i uint64) op {
	z := newZipf(len(nodes), zipfS)
	return func(i uint64) op {
		return op{kind: opNode, def: -1, node: nodes[z.rank(unit(draw(seed, streamRead, i)))]}
	}
}

// nodeWarm: two closed-loop clients fetch the all-definition neighborhood
// of typed individuals, Zipf-skewed, on the small tourism graph whose
// working set fits the neighborhood cache.
func nodeWarm(seed int64) (*dataset, error) {
	h := datagen.BenchmarkSchema()
	ds := &dataset{
		graph:     tyrolGraph(seed, tyrolSmall),
		schema:    h,
		names:     shortNames(h),
		clients:   2,
		replayOps: 4000,
	}
	nodes := typedIndividuals(seed, ds.graph())
	ds.read = zipfNodes(seed, nodes)
	for _, v := range nodes {
		ds.warm = append(ds.warm, op{kind: opNode, def: -1, node: v})
	}
	return ds, nil
}

// hubPaths: two closed-loop clients ask for the Fig. 3 hub-distance-3
// neighborhood of authors within three coauthor hops of the hub, uniform,
// with the neighborhood cache disabled.
func hubPaths(seed int64) (*dataset, error) {
	h, err := schema.New(schema.Definition{
		Name:   rdf.NewIRI(datagen.NS + "shape/HubDistance3"),
		Shape:  datagen.HubDistance3Shape(),
		Target: schema.TargetObjectsOf(datagen.PropAuthoredBy),
	})
	if err != nil {
		return nil, fmt.Errorf("hub-paths schema: %w", err)
	}
	corpus := datagen.NewCoauthor(datagen.CoauthorConfig{Papers: coauthorPapers, Seed: coauthorSeed})
	ds := &dataset{
		graph:        func() *rdfgraph.Graph { return corpus.Graph(coauthorYear) },
		schema:       h,
		names:        shortNames(h),
		cacheTriples: -1,
		clients:      2,
		replayOps:    1500,
	}
	authors := permute(seed, streamPerm, nearHub(ds.graph(), 3))
	if len(authors) == 0 {
		return nil, fmt.Errorf("hub-paths: seed %d generated no authors near the hub", seed)
	}
	ds.read = func(i uint64) op {
		return op{kind: opNode, def: 0, node: authors[draw(seed, streamRead, i)%uint64(len(authors))]}
	}
	for _, a := range authors {
		ds.warm = append(ds.warm, op{kind: opNode, def: 0, node: a})
	}
	return ds, nil
}

// nearHub lists, sorted, the authors within the given number of
// coauthorship hops of datagen.HubAuthor: those whose hub-distance
// neighborhood is non-empty, so every request traces paths. Computed by a
// breadth-first search of the generated triples, independent of the
// server's path evaluation.
func nearHub(g *rdfgraph.Graph, hops int) []rdf.Term {
	papersOf := map[rdf.Term][]rdf.Term{}
	authorsOf := map[rdf.Term][]rdf.Term{}
	for _, t := range g.Triples() {
		if t.P.Value == datagen.PropAuthoredBy {
			papersOf[t.O] = append(papersOf[t.O], t.S)
			authorsOf[t.S] = append(authorsOf[t.S], t.O)
		}
	}
	if len(papersOf[datagen.HubAuthor]) == 0 {
		return nil
	}
	seen := map[rdf.Term]bool{datagen.HubAuthor: true}
	frontier := []rdf.Term{datagen.HubAuthor}
	for d := 0; d < hops; d++ {
		var next []rdf.Term
		for _, a := range frontier {
			for _, p := range papersOf[a] {
				for _, b := range authorsOf[p] {
					if !seen[b] {
						seen[b] = true
						next = append(next, b)
					}
				}
			}
		}
		frontier = next
	}
	var out []rdf.Term
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// updateMix: one open-loop writer adds and then deletes a name of an
// event, once a second, while one closed-loop reader mixes /node and /fragment reads and
// two in-process subscriptions follow name-bearing shapes.
func updateMix(seed int64) (*dataset, error) {
	h := datagen.BenchmarkSchema()
	ds := &dataset{
		graph:  tyrolGraph(seed, tyrolSmall),
		schema: h,
		names:  shortNames(h),
		// A 40K-triple cache budget, not the default million: the reads
		// between two updates ask for ~100K entries, so the cache fills to
		// its budget in every epoch. Its map keeps the capacity of its
		// fullest moment, so with the default budget the end-of-run heap
		// would follow how many reads happened to fit between updates.
		cacheTriples: 40000,
		clients:      1,
		// One update a second keeps the write path (~300 ms of CPU per
		// update) about a third busy: at two a second it was two thirds
		// busy, and a passing slowdown of a shared machine built a backlog
		// that lasted the rest of the window.
		writeRate:     1,
		replayOps:     90,
		readsPerWrite: 8,
	}
	g := ds.graph()
	nodes := typedIndividuals(seed, g)
	events := permute(seed, streamWrite, subjectsOf(g, rdf.RDFType, datagen.ClassEvent))
	if len(events) == 0 {
		return nil, fmt.Errorf("update-mix: seed %d generated no events", seed)
	}
	// Every fifth read fetches a fragment, shapes in balanced blocks; the
	// rest are /node reads.
	nodeRead := zipfNodes(seed, nodes)
	shapes := shapeBlocks(seed, h.Len(), 4)
	ds.read = func(i uint64) op {
		if i%5 == 4 {
			return op{kind: opFragment, def: shapes(i / 5)}
		}
		return nodeRead(i)
	}
	name := rdf.NewIRI(datagen.PropName)
	ds.write = func(k int) op {
		j := k / 2
		subject := events[j%len(events)]
		t := rdf.T(subject, name, rdf.NewString(fmt.Sprintf("perfbench %d-%d", seed, j)))
		return op{kind: opUpdate, del: k%2 == 1, triple: t}
	}
	// S01 (≥1 name on events) and the definition targeting every subject
	// of name: each update adds or removes one triple of both fragments.
	ds.subs = []int{0}
	want := schema.TargetSubjectsOf(datagen.PropName).String()
	for i, d := range h.Definitions() {
		if d.Target != nil && d.Target.String() == want {
			ds.subs = append(ds.subs, i)
			break
		}
	}
	if len(ds.subs) != 2 {
		return nil, fmt.Errorf("update-mix: no definition targets subjects of name")
	}
	return ds, nil
}
