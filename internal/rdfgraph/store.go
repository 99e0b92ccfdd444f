package rdfgraph

import (
	"sync"
	"sync/atomic"

	"shaclfrag/internal/rdf"
)

// Snapshot is one immutable epoch of a Store: a frozen Graph plus the epoch
// number under which it was published. Epochs start at 1 and increase by one
// per effective update, so they order snapshots and key cache entries.
type Snapshot struct {
	g     *Graph
	epoch uint64
}

// Graph returns the frozen graph of this epoch.
func (s *Snapshot) Graph() *Graph { return s.g }

// Epoch returns the epoch number.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Delta is a batch of triple additions and deletions applied atomically.
// Deletions run first, so a triple in both lists ends up present.
// Deleting an absent triple (including one naming unknown terms) is a
// no-op, and adding a present triple is a no-op; only effective operations
// count toward ApplyResult.
type Delta struct {
	Add []rdf.Triple
	Del []rdf.Triple
}

// Store owns a sequence of immutable graph snapshots and publishes new
// epochs atomically. Readers call Current and use that snapshot for the
// whole request — they never block on writers, and a snapshot never
// changes under them. Writers are serialized by an internal mutex;
// each Apply builds the next epoch as a copy-on-write clone of the
// current one (see Graph.CloneCOW), so unchanged index submaps and the
// dictionary are shared across epochs and IDs remain stable.
type Store struct {
	mu  sync.Mutex
	cur atomic.Pointer[Snapshot]
}

// NewStore wraps g as epoch 1, freezing it if needed.
func NewStore(g *Graph) *Store {
	g.Freeze()
	st := &Store{}
	st.cur.Store(&Snapshot{g: g, epoch: 1})
	return st
}

// Current returns the latest published snapshot. The returned snapshot is
// immutable and remains valid (and consistent) indefinitely; callers
// serving a request should call Current once and use that snapshot for
// every read of the request.
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// ApplyResult reports what an Apply did.
type ApplyResult struct {
	// Snapshot is the snapshot current after the call: the freshly
	// published epoch, or the previous one when the delta was a no-op.
	Snapshot *Snapshot
	// Prev is the epoch the delta was applied against, read under the
	// same lock that published Snapshot — so Prev+1 == Snapshot.Epoch()
	// whenever Changed. Callers carrying caches across the update MUST
	// key the carry on Prev, never on an epoch they read before calling
	// Apply: two racing updates can both observe the same pre-apply
	// epoch, and the later one would then carry entries across the
	// earlier delta using only its own Unaffected predicate, silently
	// skipping the earlier delta's effects.
	Prev uint64
	// Added and Deleted count effective operations (duplicates and
	// absent deletions excluded).
	Added, Deleted int
	// Delta lists the effective operations as ID triples, deletions first:
	// exactly the triples whose presence differs between Prev and
	// Snapshot. IDs resolve in the new snapshot's dictionary. Incremental
	// maintenance seeds its shape-footprint search (core.Footprint.Reach)
	// from these triples, so it never has to diff or scan the graph.
	Delta []IDTriple
	// Changed reports whether a new epoch was published.
	Changed bool
	// Unaffected reports whether a node's weakly-connected component —
	// over the union of the previous epoch's edges and the added edges —
	// contains no endpoint of an effective delta triple. Every Table 2
	// extraction rule walks edges from the focus node, so both B(v,G,φ)
	// and v's conformance depend only on v's component: an Unaffected
	// node has the identical neighborhood and verdict in both epochs,
	// which is what lets a cache carry its entries forward. IDs must
	// come from the new snapshot's dictionary (the previous epoch's IDs
	// are valid there too). Unaffected is safe for concurrent use.
	Unaffected func(ID) bool
}

// Apply builds and publishes the next epoch from the current one. A no-op
// delta publishes nothing and returns the current snapshot with
// Changed=false. Apply never blocks readers: they keep resolving Current
// against the old epoch until the new pointer is stored.
func (st *Store) Apply(d Delta) ApplyResult {
	st.mu.Lock()
	defer st.mu.Unlock()

	old := st.cur.Load()
	ng := old.g.CloneCOW()
	var added, deleted int
	var delta []IDTriple
	for _, t := range d.Del {
		s := ng.LookupTerm(t.S)
		p := ng.LookupTerm(t.P)
		o := ng.LookupTerm(t.O)
		if s == NoID || p == NoID || o == NoID {
			continue
		}
		if ng.RemoveIDs(s, p, o) {
			deleted++
			delta = append(delta, IDTriple{S: s, P: p, O: o})
		}
	}
	for _, t := range d.Add {
		s := ng.TermID(t.S)
		p := ng.TermID(t.P)
		o := ng.TermID(t.O)
		if ng.AddIDs(s, p, o) {
			added++
			delta = append(delta, IDTriple{S: s, P: p, O: o})
		}
	}
	if added == 0 && deleted == 0 {
		// No state was mutated (duplicate adds and absent deletions
		// return before touching any index), so the clone is discarded.
		return ApplyResult{
			Snapshot:   old,
			Prev:       old.epoch,
			Unaffected: func(ID) bool { return true },
		}
	}

	// Components over old edges ∪ added edges: old edges keep nodes that
	// could reach a deleted triple connected to it, added edges connect
	// previously separate components the new triples now bridge.
	uf := NewComponents(ng.Dict().Len())
	old.g.EachTriple(func(s, _, o ID) { uf.Union(s, o) })
	for _, t := range delta { // deleted edges are old edges: no-op unions
		uf.Union(t.S, t.O)
	}
	dirty := uf.DirtySet(delta)

	ng.Freeze()
	snap := &Snapshot{g: ng, epoch: old.epoch + 1}
	st.cur.Store(snap)
	return ApplyResult{
		Snapshot:   snap,
		Prev:       old.epoch,
		Added:      added,
		Deleted:    deleted,
		Delta:      delta,
		Changed:    true,
		Unaffected: uf.Unaffected(dirty),
	}
}

// Components is a disjoint-set forest over dense IDs, used by the snapshot
// stores to decide which weakly-connected components a delta touches. It
// must be built over the *whole* graph a reader can observe: the sharded
// backend unions edges from every shard before asking for roots, because a
// component — and therefore a neighborhood B(v, G, φ) — freely spans shard
// boundaries even though each triple is stored on exactly one shard.
type Components struct {
	parent []ID
}

// NewComponents returns a forest of n singleton components.
func NewComponents(n int) *Components {
	uf := &Components{parent: make([]ID, n)}
	for i := range uf.parent {
		uf.parent[i] = ID(i)
	}
	return uf
}

func (uf *Components) find(x ID) ID {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the components of a and b.
func (uf *Components) Union(a, b ID) {
	ra, rb := uf.find(a), uf.find(b)
	if ra != rb {
		uf.parent[ra] = rb
	}
}

// Compress points every element directly at its root; afterwards Root does
// no writes and may be called from any number of goroutines.
func (uf *Components) Compress() {
	for i := range uf.parent {
		uf.parent[ID(i)] = uf.find(ID(i))
	}
}

// Root returns the component representative of x. Call Compress first when
// Root will be used concurrently.
func (uf *Components) Root(x ID) ID { return uf.parent[x] }

// DirtySet compresses the forest and returns the set of component roots
// holding an endpoint of an effective delta triple.
func (uf *Components) DirtySet(delta []IDTriple) map[ID]struct{} {
	uf.Compress()
	dirty := make(map[ID]struct{}, 2*len(delta))
	for _, t := range delta {
		dirty[uf.Root(t.S)] = struct{}{}
		dirty[uf.Root(t.O)] = struct{}{}
	}
	return dirty
}

// Unaffected returns the predicate ApplyResult carries: true iff the ID is
// in range and its component root is not in dirty. The forest must already
// be compressed (DirtySet does this); the returned func is then safe for
// concurrent use.
func (uf *Components) Unaffected(dirty map[ID]struct{}) func(ID) bool {
	return func(id ID) bool {
		if int(id) < 0 || int(id) >= len(uf.parent) {
			return false
		}
		_, hit := dirty[uf.Root(id)]
		return !hit
	}
}
