package main

import (
	"crypto/sha256"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"shaclfrag/internal/fragserver"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {999, 90}, {1000, 99}, {100000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The rule itself: the chosen rung leaves at least ten samples beyond
	// it and the next rung up does not.
	beyond := func(q float64, n int) int { return n - (rank(q, n) + 1) }
	for n := 2 * minBeyond; n <= 5000; n++ {
		q := tailPercentile(n)
		if beyond(q, n) < minBeyond {
			t.Fatalf("n=%d: p%v leaves %d samples beyond", n, q, beyond(q, n))
		}
		for _, higher := range tailLadder {
			if higher > q && beyond(higher, n) >= minBeyond {
				t.Fatalf("n=%d: chose p%v although p%v leaves %d beyond", n, q, higher, beyond(higher, n))
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for q, want := range map[float64]float64{50: 50, 75: 75, 90: 90, 99: 99} {
		if got := s.percentile(q); got != want {
			t.Errorf("p%v = %v ms, want %v", q, got, want)
		}
	}
	if q, v := s.tail(); q != 90 || v != 90 {
		t.Errorf("tail of 100 samples = p%v %v ms, want p90 90 ms", q, v)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) (time.Duration, time.Duration) {
		return time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond
	}
	mk := func(id, parent, a, b int) span {
		s, e := ms(a, b)
		return span{Name: "s", ID: id, Parent: parent, Start: s, End: e}
	}
	spans := []span{
		mk(0, -1, 0, 100), // root
		mk(1, 0, 10, 30),  // overlaps the next child: their union is 10..50
		mk(2, 0, 20, 50),
		mk(3, 0, 60, 70),
		mk(4, 0, 95, 120), // runs past the parent: only 95..100 counts
		mk(5, 3, 62, 64),  // grandchild: counts against span 3 only
	}
	got := selfTimes(spans)
	want := []int{100 - 40 - 10 - 5, 20, 30, 10 - 2, 25, 2}
	for i := range spans {
		if got[i] != time.Duration(want[i])*time.Millisecond {
			t.Errorf("span %d self time %v, want %d ms", i, got[i], want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(true)
	tr.request(7)
	root := tr.begin("root")
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	tr.end(a)
	c := tr.begin("c")
	tr.end(c)
	tr.end(root)
	parents := map[string]int{"root": -1, "a": root, "b": a, "c": root}
	for _, s := range tr.spans {
		if s.Parent != parents[s.Name] || s.Req != 7 || s.End < s.Start {
			t.Errorf("span %+v: want parent %d, request 7, end after start", s, parents[s.Name])
		}
	}
	off := newTracer(false)
	off.end(off.begin("x"))
	if len(off.spans) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(off.spans))
	}
}

// sequence renders the first n operations of a workload's replay order.
func sequence(t *testing.T, w workload, seed int64, n int) []string {
	t.Helper()
	ds, err := w.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, n)
	for i := range out {
		o := ds.opAt(i)
		out[i] = o.path(ds)
		if o.kind == opUpdate {
			out[i] += " " + o.body()
		}
	}
	return out
}

func TestSeedDeterminesSequence(t *testing.T) {
	for _, w := range workloads {
		a, b := sequence(t, w, 11, 300), sequence(t, w, 11, 300)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: seed 11 gave %q then %q at position %d", w.name, a[i], b[i], i)
			}
		}
		c := sequence(t, w, 12, 300)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 11 and 12 gave the same sequence", w.name)
		}
	}
}

// digests serves the first n reads of a workload built from seed and
// returns the digest of each response body.
func digests(t *testing.T, w workload, seed int64, n int) [][sha256.Size]byte {
	t.Helper()
	ds, err := w.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fragserver.New(fragserver.Config{
		Graph: ds.graph(), Schema: ds.schema, CacheTriples: ds.cacheTriples,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][sha256.Size]byte, n)
	for i := range out {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, ds.read(uint64(i)).path(ds), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s read %d: status %d", w.name, i, rec.Code)
		}
		out[i] = sha256.Sum256(rec.Body.Bytes())
	}
	return out
}

func TestSeedDeterminesResponses(t *testing.T) {
	for _, name := range []string{"node-warm", "hub-paths"} {
		w, _ := findWorkload(name)
		a, b := digests(t, w, 5, 40), digests(t, w, 5, 40)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: read %d answered differently on two builds from seed 5", name, i)
			}
		}
	}
}

func TestReplayInterleavesWrites(t *testing.T) {
	w, _ := findWorkload("update-mix")
	ds, err := w.build(1)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for i := 0; i < 3*(ds.readsPerWrite+1); i++ {
		o := ds.opAt(i)
		if (o.kind == opUpdate) != (i%(ds.readsPerWrite+1) == ds.readsPerWrite) {
			t.Fatalf("op %d has kind %d", i, o.kind)
		}
		if o.kind == opUpdate {
			if o.del != (writes%2 == 1) {
				t.Errorf("update %d: del=%v; updates alternate add and delete", writes, o.del)
			}
			writes++
		}
	}
}
