package fragserver

import (
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"shaclfrag/internal/datagen"
	"shaclfrag/internal/paths"
	"shaclfrag/internal/rdf"
	"shaclfrag/internal/schema"
	"shaclfrag/internal/shape"
)

// congruentSchema holds two definitions that differ only in name and
// conjunct order — the containment analysis must put their request
// shapes in one equivalence class so they share cache entries.
func congruentSchema(t *testing.T) *schema.Schema {
	t.Helper()
	minName := shape.Min(1, paths.P(datagen.PropName), shape.TrueShape())
	litRating := shape.All(paths.P(datagen.PropRating), shape.NodeTestShape(shape.IsLiteral{}))
	return schema.MustNew(
		schema.Definition{
			Name:   rdf.NewIRI(datagen.NS + "shape/S1"),
			Shape:  shape.AndOf(minName, litRating),
			Target: schema.TargetClass(datagen.ClassEvent),
		},
		schema.Definition{
			Name:   rdf.NewIRI(datagen.NS + "shape/S2"),
			Shape:  shape.AndOf(litRating, minName),
			Target: schema.TargetClass(datagen.ClassEvent),
		},
	)
}

func newCongruentServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	g := datagen.Tyrol(datagen.TyrolConfig{Individuals: 80, Seed: 11})
	srv, err := New(Config{Graph: g, Schema: congruentSchema(t), Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9.eE+-]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in /metrics output", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// TestFragmentServedFromCongruentCacheEntries is the tentpole e2e check:
// requesting S2's fragment after S1's is served from S1's warm cache
// entries (the containment hit counter moves) and is byte-identical to
// what a cold server extracts for S2.
func TestFragmentServedFromCongruentCacheEntries(t *testing.T) {
	srv, ts := newCongruentServer(t)

	if cl := srv.ContainmentClasses(); cl == nil || cl.Shared == 0 {
		t.Fatalf("containment classes = %+v, want shared shapes", cl)
	}

	_, warm1 := get(t, ts, "/fragment?shape=S1")
	_, warm2 := get(t, ts, "/fragment?shape=S2")
	if warm1 != warm2 {
		// Same target, congruent shapes: the fragments must coincide too.
		t.Fatal("congruent definitions served different fragments")
	}

	_, metrics := get(t, ts, "/metrics")
	if hits := metricValue(t, metrics, "fragserver_containment_hits_total"); hits == 0 {
		t.Fatal("S2's fragment did not hit S1's cache entries through the alias table")
	}
	if classes := metricValue(t, metrics, "fragserver_containment_classes"); classes == 0 {
		t.Fatal("containment class gauge missing or zero")
	}
	if shared := metricValue(t, metrics, "fragserver_containment_shared_shapes"); shared == 0 {
		t.Fatal("shared-shapes gauge missing or zero")
	}

	// Cold control: a fresh server asked only for S2 must produce the
	// same bytes the warm alias-served response carried.
	_, cold := newCongruentServer(t)
	_, coldBody := get(t, cold, "/fragment?shape=S2")
	if coldBody != warm2 {
		t.Fatal("alias-served fragment differs from cold extraction")
	}
}

// TestNodeServedFromCongruentCacheEntries covers the /node route, which
// keys the cache by raw definition shapes rather than request shapes.
func TestNodeServedFromCongruentCacheEntries(t *testing.T) {
	srv, ts := newCongruentServer(t)

	// Find a node /fragment actually serves, so the neighborhood is
	// non-trivial.
	_, frag := get(t, ts, "/fragment?shape=S1")
	line := strings.SplitN(frag, " ", 2)[0]
	if !strings.HasPrefix(line, "<") {
		t.Fatalf("no IRI subject in fragment: %q", frag[:min(80, len(frag))])
	}
	iri := strings.Trim(line, "<>")

	_, n1 := get(t, ts, "/node?iri="+iri+"&shape=S1")
	before := srv.cache.Stats().AliasHits
	_, n2 := get(t, ts, "/node?iri="+iri+"&shape=S2")
	if n1 != n2 {
		t.Fatal("congruent definition shapes served different node neighborhoods")
	}
	if after := srv.cache.Stats().AliasHits; after == before {
		t.Fatal("S2's /node request did not reuse S1's cached neighborhood")
	}
}

// TestAliasesSurviveUpdates pins that the class table is a schema-lifetime
// fact: effective updates neither rebuild it nor drop the alias table
// from the cache, and alias-served bytes still track the updated graph.
func TestAliasesSurviveUpdates(t *testing.T) {
	srv, ts := newCongruentServer(t)
	classes := srv.ContainmentClasses()

	// An event that S1 serves, found through its name triple.
	_, frag := get(t, ts, "/fragment?shape=S1")
	var event string
	for _, line := range strings.Split(frag, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[1] == "<"+datagen.PropName+">" {
			event = f[0]
			break
		}
	}
	if event == "" {
		t.Fatalf("no name triple in S1's fragment: %q", frag[:min(80, len(frag))])
	}
	updates := []string{
		event + " <" + datagen.PropName + `> "renamed" .`,
		event + " <" + datagen.PropRating + `> "5" .`,
	}
	apply := func(ts *httptest.Server) {
		t.Helper()
		for _, u := range updates {
			resp, body := post(t, ts, "/update", u)
			var ur updateResponse
			if err := json.Unmarshal([]byte(body), &ur); resp.StatusCode != 200 || err != nil || !ur.Changed {
				t.Fatalf("POST /update %q: %d %s", u, resp.StatusCode, body)
			}
		}
	}
	apply(ts)

	if got := srv.ContainmentClasses(); got != classes {
		t.Fatalf("updates replaced the class table: %p → %p", classes, got)
	}
	_, metrics := get(t, ts, "/metrics")
	hits := metricValue(t, metrics, "fragserver_containment_hits_total")
	_, warm1 := get(t, ts, "/fragment?shape=S1")
	_, warm2 := get(t, ts, "/fragment?shape=S2")
	_, metrics = get(t, ts, "/metrics")
	if after := metricValue(t, metrics, "fragserver_containment_hits_total"); after <= hits {
		t.Fatalf("S2 after S1 did not hit through the alias table after updates (hits %v → %v)", hits, after)
	}
	if warm1 != warm2 || !strings.Contains(warm2, `"renamed"`) {
		t.Fatal("alias-served fragment does not reflect the updated graph")
	}

	// Cold control: a fresh server given the same updates and asked only
	// for S2 must produce the bytes the alias-served response carried.
	_, cold := newCongruentServer(t)
	apply(cold)
	if _, coldBody := get(t, cold, "/fragment?shape=S2"); coldBody != warm2 {
		t.Fatal("alias-served fragment after updates differs from cold extraction")
	}
}
