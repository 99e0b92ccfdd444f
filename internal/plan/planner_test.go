package plan_test

import (
	"strings"
	"testing"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/plan"
	"shaclfrag/internal/store"
)

func tyrolStats(t *testing.T, individuals int) store.CardStats {
	t.Helper()
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: individuals, Seed: 1})
	g.Freeze()
	st, err := store.New(g, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return store.SampleStats(st.Current())
}

// TestSampleStats pins the sampling invariants on both backends: the
// triple count matches the graph, the dictionary holds at least every
// term of it, and the epoch is the snapshot's.
func TestSampleStats(t *testing.T) {
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 100, Seed: 3})
	g.Freeze()
	for _, cfg := range []store.Config{{}, {Backend: store.BackendSharded, Shards: 4}} {
		st, err := store.New(g.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := st.Current()
		stats := store.SampleStats(snap)
		if stats.Triples != g.Len() {
			t.Fatalf("%s: stats.Triples = %d, graph has %d", st.Backend(), stats.Triples, g.Len())
		}
		if nodes := len(snap.Reader().NodeIDs()); nodes == 0 || stats.DictTerms < nodes {
			t.Fatalf("%s: dictionary of %d terms for %d nodes", st.Backend(), stats.DictTerms, nodes)
		}
		if stats.Epoch != snap.Epoch() {
			t.Fatalf("%s: stats.Epoch = %d, snapshot is %d", st.Backend(), stats.Epoch, snap.Epoch())
		}
	}
}

// TestPlanSchemaDefault checks the default budget: on the benchmark schema
// every definition stays on its compiled plan, every decision carries a
// program, and ProgramSet aligns with the decisions.
func TestPlanSchemaDefault(t *testing.T) {
	h := datagen.BenchmarkSchema()
	sp := plan.PlanSchema(h, tyrolStats(t, 200), plan.Config{})
	if len(sp.Decisions) != h.Len() {
		t.Fatalf("%d decisions for %d definitions", len(sp.Decisions), h.Len())
	}
	set := sp.ProgramSet()
	for i, d := range sp.Decisions {
		if d.Program == nil {
			t.Fatalf("%s: no compiled program", d.Name)
		}
		if d.Strategy != plan.StrategyPlan {
			t.Errorf("%s: strategy %s (reason %q), want plan", d.Name, d.Strategy, d.Reason)
		}
		if (set.Programs[i] != nil) != (d.Strategy == plan.StrategyPlan) {
			t.Errorf("%s: ProgramSet misaligned with strategy", d.Name)
		}
	}
	if sp.Counts()[plan.StrategyPlan] != len(sp.Decisions) {
		t.Fatalf("counts: %v", sp.Counts())
	}
}

// TestPlanSchemaMemoBudget checks the only fallback: a tiny budget routes
// every definition to direct, with the budget named in the reason.
func TestPlanSchemaMemoBudget(t *testing.T) {
	h := datagen.BenchmarkSchema()
	sp := plan.PlanSchema(h, tyrolStats(t, 200), plan.Config{MemoBudget: 1})
	for _, d := range sp.Decisions {
		if d.Strategy != plan.StrategyDirect {
			t.Fatalf("%s: strategy %s, want direct under 1-byte budget", d.Name, d.Strategy)
		}
		if !strings.Contains(d.Reason, "over budget") {
			t.Fatalf("%s: reason %q does not mention the budget", d.Name, d.Reason)
		}
	}
}
