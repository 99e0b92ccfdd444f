package main

import (
	"fmt"
	"time"

	"shaclfrag/internal/contain"
	"shaclfrag/internal/core"
	"shaclfrag/internal/live"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
	"shaclfrag/internal/store"
	"shaclfrag/internal/turtle"
)

// The traced replay runs a workload's seeded operation sequence in process
// and on one goroutine, calling the layer entry points the fragserver
// handlers call, in the same order, with the same server state (store,
// neighborhood cache with containment aliases, compiled plans, live
// maintainer with the same subscriptions). The benchmark's own spans wrap
// each call. Under each operation's root span the children partition its
// work:
//
//	/fragment  plan.bind → core.extract (cache probe, plan.conform, plan
//	           collection, cache fill, decode) → turtle.serialize
//	/node      turtle.parse (the iri parameter) → store.lookup →
//	           core.extract → turtle.serialize
//	/update    turtle.parse → store.apply → core.carry (carry and stale
//	           eviction) → plan.replan → contain.classes → live.notify
//
// plan.conform decides the root verdict of each node extraction computes;
// the verdict is memoized, so the collection that follows reuses it.
// Path tracing happens inside extraction and is not separable from
// outside, so after a read the replay runs a separate "probe" root: the
// request's non-atomic root-level paths (quantifier and eq paths of the
// NNF shape, through conjunctions, disjunctions and references) evaluated
// and traced with a fresh paths.Evaluator at every focus node extraction
// computed. Probe time is reported as paths.* and is not part of the
// operation's layer sum.

// replayState mirrors the state fragserver.New builds.
type replayState struct {
	ds          *dataset
	tr          *tracer
	st          store.Store
	cache       *core.NeighborhoodCache
	requests    []shape.Shape
	defs        []shape.Shape
	classShapes []shape.Shape
	set         *plan.Set
	maint       *live.Maintainer
	subs        []*live.Subscription
	x           *core.Extractor // the pooled extractor of the current epoch

	// probe caches each request shape's non-atomic root-level paths.
	probe map[shape.Shape][]quantPath
	// Work counters.
	count counts
}

// counts are the deterministic work counters of one replay.
type counts struct {
	reads, updates, parses int
	instructions           int // instructions of the programs bound
	traces                 int // TraceUnionIDs calls in the probe
	triplesOut             int
	bytesOut               int
	carried, carryBase     int
	reextracted, useful    int
}

func newReplayState(ds *dataset, tr *tracer) (*replayState, error) {
	h := ds.schema
	g := ds.graph()
	store.WarmDictionary(g, h)
	st, err := store.New(g, store.Config{})
	if err != nil {
		return nil, fmt.Errorf("replay store: %w", err)
	}
	rs := &replayState{
		ds:       ds,
		tr:       tr,
		st:       st,
		requests: core.SchemaRequests(h),
		defs:     defShapes(ds),
		probe:    map[shape.Shape][]quantPath{},
	}
	if ds.cacheTriples >= 0 {
		rs.cache = core.NewNeighborhoodCache(ds.cacheTriples)
	}
	rs.classShapes = append(append([]shape.Shape{}, rs.requests...), rs.defs...)
	snap := st.Current()
	rs.replan(snap)
	rs.reclass()
	rs.maint = live.NewMaintainer(live.Config{
		Schema:   h,
		Requests: rs.requests,
		Cache:    rs.cache,
		Plans:    func(def int) *plan.Program { return rs.set.Programs[def] },
	}, snap)
	for _, def := range ds.subs {
		sub, _, err := rs.maint.Subscribe(def, 0)
		if err != nil {
			return nil, fmt.Errorf("replay subscription: %w", err)
		}
		rs.subs = append(rs.subs, sub)
	}
	rs.x = core.NewExtractor(snap.Reader(), h)
	return rs, nil
}

func (rs *replayState) replan(snap store.Snapshot) {
	rs.set = plan.PlanSchema(rs.ds.schema, store.SampleStats(snap), plan.Config{}).ProgramSet()
}

func (rs *replayState) reclass() {
	cl := contain.ComputeClasses(rs.ds.schema, rs.classShapes)
	if rs.cache != nil {
		rs.cache.SetAliases(cl.Aliases(rs.classShapes))
	}
}

// close ends the replay's subscriptions.
func (rs *replayState) close() {
	for _, sub := range rs.subs {
		rs.maint.Unsubscribe(sub)
	}
}

// opAt is the replay's i-th operation: reads from the read sequence, with
// one update after every readsPerWrite reads when the workload writes.
func (ds *dataset) opAt(i int) op {
	if ds.write == nil {
		return ds.read(uint64(i))
	}
	per := ds.readsPerWrite + 1
	if i%per == ds.readsPerWrite {
		return ds.write(i / per)
	}
	return ds.read(uint64(i - i/per))
}

// step replays one operation and returns its wall time.
func (rs *replayState) step(i int, o op) time.Duration {
	start := time.Now()
	rs.tr.request(i)
	switch o.kind {
	case opFragment:
		rs.fragment(o)
	case opNode:
		rs.node(o)
	case opUpdate:
		rs.update(o)
	}
	rs.drainSubs()
	return time.Since(start)
}

// cacheStats reads the neighborhood cache counters (zero without a cache).
func (rs *replayState) cacheStats() core.CacheStats {
	if rs.cache == nil {
		return core.CacheStats{}
	}
	return rs.cache.Stats()
}

// drainSubs empties the subscription queues, as a follower would.
func (rs *replayState) drainSubs() {
	for _, sub := range rs.subs {
		for len(sub.Events()) > 0 {
			<-sub.Events()
		}
	}
}

// fragment replays GET /fragment?shape=: the cached-mode extraction of
// core.FragmentParallel, serially.
func (rs *replayState) fragment(o op) {
	rs.count.reads++
	tr := rs.tr
	root := tr.begin("fragment")
	snap := rs.st.Current()
	g, epoch := snap.Reader(), snap.Epoch()
	request := rs.requests[o.def]

	sp := tr.begin("plan.bind")
	var b *plan.Bound
	if prog := rs.set.Programs[o.def]; prog != nil {
		b = prog.Bind(g)
		rs.count.instructions += prog.NumInstrs()
	}
	tr.end(sp)

	sp = tr.begin("core.extract")
	out := rdfgraph.NewIDTripleSet()
	var miss []rdfgraph.ID
	for _, v := range g.NodeIDs() {
		if rs.cache != nil {
			if ts, ok := rs.cache.Get(epoch, v, request); ok {
				out.AddAll(ts)
				continue
			}
		}
		miss = append(miss, v)
	}
	var focus []rdfgraph.ID // computed nodes that conform: the probe's focus set
	if b != nil {
		cs := tr.begin("plan.conform")
		for _, v := range miss {
			if b.ConformsRoot(v) {
				focus = append(focus, v)
			}
		}
		tr.end(cs)
	}
	for _, v := range miss {
		switch {
		case rs.cache == nil && b != nil:
			b.CollectInto(v, out)
		case b != nil:
			per := rdfgraph.NewIDTripleSet()
			b.ResetVisited()
			b.CollectInto(v, per)
			rs.cache.Put(epoch, v, request, per.IDTriples())
			out.AddSet(per)
		default:
			out.AddAll(rs.x.NeighborhoodIDsCached(rs.cache, epoch, v, request))
		}
	}
	triples := out.Triples(g.Dict())
	tr.end(sp)

	rs.serialize(triples)
	tr.end(root)
	if b == nil {
		focus = miss
	}
	rs.probePaths(request, focus)
}

// node replays GET /node?iri=[&shape=]: handleNode's parse, lookup and
// per-definition cached extraction.
func (rs *replayState) node(o op) {
	rs.count.reads++
	rs.count.parses++
	tr := rs.tr
	root := tr.begin("node")
	snap := rs.st.Current()
	g, epoch := snap.Reader(), snap.Epoch()

	sp := tr.begin("turtle.parse")
	// fragserver parses a bracketed iri parameter by placing it in the
	// object position of a probe triple.
	ts, err := turtle.ParseTriples("<http://fragserver.invalid/s> <http://fragserver.invalid/p> <" + o.node.Value + "> .")
	tr.end(sp)
	if err != nil || len(ts) != 1 {
		panic(fmt.Sprintf("perfbench: generated focus %s does not parse: %v", o.node, err))
	}

	sp = tr.begin("store.lookup")
	id := g.LookupTerm(ts[0].O)
	tr.end(sp)

	var computed []shape.Shape
	var triples []rdf.Triple
	sp = tr.begin("core.extract")
	if id != rdfgraph.NoID {
		out := rdfgraph.NewIDTripleSet()
		for i, phi := range rs.defs {
			if o.def >= 0 && o.def != i {
				continue
			}
			misses := rs.misses()
			out.AddAll(rs.x.NeighborhoodIDsCached(rs.cache, epoch, id, phi))
			if rs.misses() != misses || rs.cache == nil {
				computed = append(computed, phi)
			}
		}
		triples = out.Triples(g.Dict())
	}
	tr.end(sp)

	rs.serialize(triples)
	tr.end(root)
	for _, phi := range computed {
		rs.probePaths(phi, []rdfgraph.ID{id})
	}
}

func (rs *replayState) misses() uint64 {
	if rs.cache == nil {
		return 0
	}
	return rs.cache.Stats().Misses
}

// serialize replays streamNTriples into a byte counter.
func (rs *replayState) serialize(triples []rdf.Triple) {
	sp := rs.tr.begin("turtle.serialize")
	var w countWriter
	nw := turtle.NewNTriplesWriter(&w)
	for _, t := range triples {
		nw.WriteTriple(t) //nolint:errcheck — countWriter never fails
	}
	nw.Flush() //nolint:errcheck — countWriter never fails
	rs.tr.end(sp)
	rs.count.triplesOut += len(triples)
	rs.count.bytesOut += int(w)
}

type countWriter int

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}

// update replays POST /update: parse, apply, carry, replan, reclass,
// notify, stale eviction.
func (rs *replayState) update(o op) {
	rs.count.updates++
	rs.count.parses++
	tr := rs.tr
	root := tr.begin("update")
	sp := tr.begin("turtle.parse")
	ts, err := turtle.ParseTriples(o.body())
	tr.end(sp)
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated update does not parse: %v", err))
	}
	delta := rdfgraph.Delta{Add: ts}
	if o.del {
		delta = rdfgraph.Delta{Del: ts}
	}

	sp = tr.begin("store.apply")
	res := rs.st.Apply(delta)
	tr.end(sp)
	if !res.Changed {
		panic("perfbench: generated update did not change the graph")
	}
	epoch := res.Snapshot.Epoch()

	sp = tr.begin("core.carry")
	if rs.cache != nil {
		rs.count.carryBase += rs.cache.Len()
		rs.count.carried += rs.cache.Carry(res.Prev, epoch, res.Unaffected)
	}
	tr.end(sp)

	sp = tr.begin("plan.replan")
	rs.replan(res.Snapshot)
	tr.end(sp)

	sp = tr.begin("contain.classes")
	rs.reclass()
	tr.end(sp)

	sp = tr.begin("live.notify")
	ns := rs.maint.Notify(res, nil)
	tr.end(sp)
	rs.count.reextracted += ns.Reextracted
	rs.count.useful += ns.Added + ns.Removed

	sp = tr.begin("core.carry")
	if rs.cache != nil {
		rs.cache.EvictBelow(epoch)
	}
	tr.end(sp)
	tr.end(root)
	rs.x = core.NewExtractor(res.Snapshot.Reader(), rs.ds.schema)
}

// quantPath is a root-level path of a request shape and the rule that
// picks its trace targets among the path's values, as Table 2 does: the
// values conforming to body (not conforming when negated, for ≤n), or
// every value when body is nil.
type quantPath struct {
	path    paths.Expr
	body    shape.Shape
	negated bool
}

// rootPaths collects the non-atomic root-level paths of an NNF shape.
// References terminate: schema.New rejects reference cycles.
func rootPaths(phi shape.Shape, h *schema.Schema, out []quantPath) []quantPath {
	switch s := phi.(type) {
	case *shape.And:
		for _, c := range s.Xs {
			out = rootPaths(c, h, out)
		}
	case *shape.Or:
		for _, c := range s.Xs {
			out = rootPaths(c, h, out)
		}
	case *shape.HasShape:
		if d, ok := h.Def(s.Name); ok {
			out = rootPaths(shape.NNF(d), h, out)
		}
	case *shape.MinCount:
		out = appendPath(out, quantPath{path: s.Path, body: s.X})
	case *shape.MaxCount:
		out = appendPath(out, quantPath{path: s.Path, body: s.X, negated: true})
	case *shape.Forall:
		out = appendPath(out, quantPath{path: s.Path})
	case *shape.Eq:
		if s.Path != nil {
			out = appendPath(out, quantPath{path: paths.Alt{Left: s.Path, Right: paths.P(s.P)}})
		}
	}
	return out
}

func appendPath(out []quantPath, q quantPath) []quantPath {
	switch x := q.path.(type) {
	case paths.Prop:
		return out
	case paths.Inverse:
		if _, ok := x.X.(paths.Prop); ok {
			return out
		}
	}
	return append(out, q)
}

// probePaths evaluates and traces the request's non-atomic root-level
// paths at each focus node, with fresh evaluators, under a "probe" root.
func (rs *replayState) probePaths(phi shape.Shape, focus []rdfgraph.ID) {
	qs, ok := rs.probe[phi]
	if !ok {
		qs = rootPaths(shape.NNF(phi), rs.ds.schema, nil)
		rs.probe[phi] = qs
	}
	if len(qs) == 0 || len(focus) == 0 {
		return
	}
	tr := rs.tr
	root := tr.begin("probe")
	g := rs.st.Current().Reader()
	ev := rs.x.Evaluator()
	nnf := shape.NNF(phi)
	for _, q := range qs {
		pe := paths.NewEvaluator(q.path, g)
		for _, v := range focus {
			if !ev.Conforms(v, nnf) {
				continue
			}
			sp := tr.begin("paths.trace")
			vals := pe.Eval(v)
			tr.end(sp)
			targets := vals
			if q.body != nil {
				targets = nil
				for _, b := range vals {
					if ev.Conforms(b, q.body) != q.negated {
						targets = append(targets, b)
					}
				}
			}
			sp = tr.begin("paths.trace")
			pe.TraceUnionIDs(v, targets)
			tr.end(sp)
			rs.count.traces++
		}
	}
	tr.end(root)
}
