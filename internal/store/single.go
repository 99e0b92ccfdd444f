package store

import "shaclfrag/internal/rdfgraph"

// Single adapts the one-graph rdfgraph.Store to the Store interface. It is
// the default backend: all triples in one Graph, epochs published by
// rdfgraph.Store's copy-on-write Apply.
type Single struct {
	st *rdfgraph.Store
}

// NewSingle wraps g as epoch 1, freezing it if needed.
func NewSingle(g *rdfgraph.Graph) *Single {
	return &Single{st: rdfgraph.NewStore(g)}
}

// singleSnap wraps an rdfgraph.Snapshot as a store.Snapshot.
type singleSnap struct {
	s *rdfgraph.Snapshot
}

func (s singleSnap) Reader() rdfgraph.Reader { return s.s.Graph() }
func (s singleSnap) Epoch() uint64           { return s.s.Epoch() }

// Current implements Store.
func (st *Single) Current() Snapshot { return singleSnap{st.st.Current()} }

// Apply implements Store.
func (st *Single) Apply(d rdfgraph.Delta) ApplyResult {
	res := st.st.Apply(d)
	return ApplyResult{
		Snapshot:   singleSnap{res.Snapshot},
		Prev:       res.Prev,
		Added:      res.Added,
		Deleted:    res.Deleted,
		Delta:      res.Delta,
		Changed:    res.Changed,
		Unaffected: res.Unaffected,
	}
}

// Backend implements Store.
func (st *Single) Backend() string { return BackendSingle }

// NumShards implements Store.
func (st *Single) NumShards() int { return 1 }

// ShardTriples implements Store.
func (st *Single) ShardTriples() []int {
	return []int{st.st.Current().Graph().Len()}
}

// CrossShardResolutions implements Store.
func (st *Single) CrossShardResolutions() uint64 { return 0 }
