package store

// CardStats size one snapshot. plan.PlanSchema prices the dense memo rows
// of compiled plans against DictTerms.
type CardStats struct {
	// Epoch is the snapshot the stats describe.
	Epoch uint64
	// Triples sizes the graph; DictTerms is the dictionary length (an
	// upper bound on any node ID, which is what dense rows index by).
	Triples   int
	DictTerms int
}

// SampleStats reads the size statistics of a snapshot. The dictionary is
// shared across shards, so term counts need no merging.
func SampleStats(snap Snapshot) CardStats {
	r := snap.Reader()
	return CardStats{
		Epoch:     snap.Epoch(),
		Triples:   r.Len(),
		DictTerms: r.Dict().Len(),
	}
}
