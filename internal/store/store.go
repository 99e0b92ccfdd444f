// Package store is the pluggable storage tier of the serving stack: it owns
// the sequence of immutable graph epochs a server reads from and the delta
// path that publishes new ones. Two backends implement the same Store
// contract — a thin adapter over the single-graph rdfgraph.Store, and a
// sharded backend that partitions the dictionary-encoded indexes by subject
// ID across N shards (see Sharded). Everything above this package — the
// extractors of internal/core, the HTTP handlers of internal/fragserver,
// the CLI — speaks Store and rdfgraph.Reader and cannot tell the backends
// apart except by throughput.
package store

import (
	"fmt"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/rdfgraph"
)

// Backend names accepted by Config.Backend and reported by Store.Backend.
const (
	BackendSingle  = "single"
	BackendSharded = "sharded"
)

// Config selects and sizes a backend.
type Config struct {
	// Backend is BackendSingle (default when empty) or BackendSharded.
	Backend string
	// Shards is the shard count for the sharded backend; 0 means
	// DefaultShards. The single backend ignores it.
	Shards int
}

// DefaultShards is the shard count used when Config.Shards is 0.
const DefaultShards = 4

func (c Config) normalize() (Config, error) {
	switch c.Backend {
	case "", BackendSingle:
		c.Backend = BackendSingle
		c.Shards = 1
	case BackendSharded:
		if c.Shards == 0 {
			c.Shards = DefaultShards
		}
		if c.Shards < 1 {
			return c, fmt.Errorf("store: shard count %d < 1", c.Shards)
		}
	default:
		return c, fmt.Errorf("store: unknown backend %q (want %q or %q)", c.Backend, BackendSingle, BackendSharded)
	}
	return c, nil
}

// Snapshot is one immutable epoch of a Store. Epochs start at 1 and
// increase by one per effective update; the Reader is frozen and safe for
// any number of concurrent readers for as long as the caller retains it.
type Snapshot interface {
	// Reader is the read surface of this epoch.
	Reader() rdfgraph.Reader
	// Epoch returns the epoch number.
	Epoch() uint64
}

// ApplyResult reports what an Apply did. It mirrors rdfgraph.ApplyResult;
// see that type for the precise Unaffected contract (component analysis
// over the union of the previous epoch's edges and the added edges — for
// the sharded backend the components are built globally across all shards,
// never per shard, because a neighborhood freely spans shard boundaries)
// and the Prev contract (the epoch the delta was applied against, read
// under the apply lock — the only sound key for carrying caches across
// the update; an epoch read before Apply can be stale under racing
// writers).
type ApplyResult struct {
	Snapshot       Snapshot
	Prev           uint64
	Added, Deleted int
	// Delta is the effective ID triples of the update, deletions first;
	// see rdfgraph.ApplyResult.Delta. Both backends fill it.
	Delta      []rdfgraph.IDTriple
	Changed    bool
	Unaffected func(rdfgraph.ID) bool
}

// Store owns a sequence of immutable graph snapshots and publishes new
// epochs atomically: readers call Current and use that snapshot for the
// whole request without ever blocking on writers; writers are serialized
// internally and publish copy-on-write epochs.
type Store interface {
	// Current returns the latest published snapshot.
	Current() Snapshot
	// Apply builds and publishes the next epoch from the current one.
	Apply(d rdfgraph.Delta) ApplyResult
	// Backend returns the backend name (BackendSingle or BackendSharded).
	Backend() string
	// NumShards returns the shard count (1 for the single backend).
	NumShards() int
	// ShardTriples returns the per-shard triple counts of the current
	// epoch; the single backend reports one entry.
	ShardTriples() []int
	// CrossShardResolutions returns the cumulative count of reverse-index
	// results resolved from a shard other than the queried node's own.
	// Always 0 for the single backend.
	CrossShardResolutions() uint64
}

// New wraps an already-built graph in the configured backend, freezing it
// as epoch 1. The sharded backend re-partitions g's triples by subject ID
// while sharing g's dictionary, so IDs held by callers stay valid.
func New(g *rdfgraph.Graph, cfg Config) (Store, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Backend == BackendSingle {
		return NewSingle(g), nil
	}
	return NewSharded(g, cfg.Shards), nil
}

// Loader streams triples into a backend without materializing the full
// triple slice: each Add interns the terms and updates the indexes in
// place, so peak memory is the final index size, not indexes plus a
// []rdf.Triple copy of the input. This is what lets a 10M-triple datagen
// graph load within bounded memory.
type Loader struct {
	cfg Config
	g   *rdfgraph.Graph // single backend
	sg  *ShardedGraph   // sharded backend
}

// NewLoader returns an empty loader for the configured backend.
func NewLoader(cfg Config) (*Loader, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	l := &Loader{cfg: cfg}
	if cfg.Backend == BackendSingle {
		l.g = rdfgraph.New()
	} else {
		l.sg = NewShardedGraph(cfg.Shards, rdfgraph.NewDict())
	}
	return l, nil
}

// Add inserts one triple, reporting whether it was new.
func (l *Loader) Add(t rdf.Triple) bool {
	if l.g != nil {
		return l.g.Add(t)
	}
	return l.sg.Add(t)
}

// Len returns the number of triples loaded so far.
func (l *Loader) Len() int {
	if l.g != nil {
		return l.g.Len()
	}
	return l.sg.Len()
}

// Reader exposes the graph under construction. It must not be used
// concurrently with Add; after Finish it is the epoch-1 read surface.
func (l *Loader) Reader() rdfgraph.Reader {
	if l.g != nil {
		return l.g
	}
	return l.sg
}

// Finish freezes the loaded graph and wraps it as epoch 1 of a Store.
func (l *Loader) Finish() Store {
	if l.g != nil {
		return NewSingle(l.g)
	}
	return newShardedFrom(l.sg)
}
