package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layerMetric names a per-layer time metric: the self time of the spans
// called span, averaged over the operations of the given kind.
type layerMetric struct {
	name, span, unit string
	per              string // "read", "update" or "parse"
}

var layerTimes = []layerMetric{
	{"store.apply_ms", "store.apply", "ms", "update"},
	{"store.lookup_us", "store.lookup", "us", "read"},
	{"contain.classes_ms", "contain.classes", "ms", "update"},
	{"plan.replan_ms", "plan.replan", "ms", "update"},
	{"plan.bind_ms", "plan.bind", "ms", "read"},
	{"plan.conform_us", "plan.conform", "us", "read"},
	{"paths.trace_ms", "paths.trace", "ms", "read"},
	{"core.extract_ms", "core.extract", "ms", "read"},
	{"turtle.serialize_ms", "turtle.serialize", "ms", "read"},
	{"turtle.parse_us", "turtle.parse", "us", "parse"},
	{"live.notify_ms", "live.notify", "ms", "update"},
}

// tracedReplay replays the workload's first replayOps operations in
// process on two fresh states, one without spans and one with them, after
// the same warm-up, and returns the per-layer metrics.
func tracedReplay(wl workload, ds *dataset, run *httpRun, cfg config, w io.Writer) (map[string]metric, error) {
	ops := make([]op, ds.replayOps)
	for i := range ops {
		ops[i] = ds.opAt(i)
	}
	// Both replays advance in lockstep, alternating which goes first, so
	// drift over the run (heap growth, collections, other load) falls on
	// both alike.
	plainRS, err := newReplayState(ds, newTracer(false))
	if err != nil {
		return nil, err
	}
	defer plainRS.close()
	rs, err := newReplayState(ds, newTracer(false))
	if err != nil {
		return nil, err
	}
	defer rs.close()
	for i, o := range ds.warm {
		plainRS.step(i, o)
		rs.step(i, o)
	}
	rs.count = counts{}
	rs.tr.on = true
	before := rs.cacheStats()
	var plain, traced time.Duration
	for i, o := range ops {
		if i%2 == 0 {
			plain += plainRS.step(i, o)
			traced += rs.step(i, o)
		} else {
			traced += rs.step(i, o)
			plain += plainRS.step(i, o)
		}
	}
	after := rs.cacheStats()
	spans := rs.tr.spans
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating %s: %w", spanDir, err)
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}

	self := selfTimes(spans)
	total := map[string]time.Duration{}
	var readSums []float64 // per replayed read: its root's duration less its root's self time
	for i, s := range spans {
		if s.Parent >= 0 {
			total[s.Name] += self[i]
		} else if s.Name == "fragment" || s.Name == "node" {
			readSums = append(readSums, ms(s.dur()-self[i]))
		}
	}
	c := rs.count
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out := map[string]metric{}
	for _, m := range layerTimes {
		n := map[string]int{"read": c.reads, "update": c.updates, "parse": c.parses}[m.per]
		v := ms(total[m.span])
		if m.unit == "us" {
			v *= 1000
		}
		out[m.name] = metric{per(v, n), m.unit}
	}
	out["plan.instructions"] = metric{per(float64(c.instructions), c.reads), "count/op"}
	out["paths.traces"] = metric{per(float64(c.traces), c.reads), "count/op"}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	out["core.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	out["core.cache_evictions"] = metric{per(float64(after.Evictions-before.Evictions), c.reads), "count/op"}
	out["core.carry_ratio"] = metric{ratio(uint64(c.carried), uint64(c.carryBase)), "ratio"}
	out["core.triples_out"] = metric{per(float64(c.triplesOut), c.reads), "count/op"}
	out["turtle.bytes_out"] = metric{per(float64(c.bytesOut), c.reads), "bytes/op"}
	out["live.reextracted"] = metric{per(float64(c.reextracted), c.updates), "count/op"}
	out["live.useful_ratio"] = metric{ratio(uint64(c.useful), uint64(c.reextracted)), "ratio"}
	out["fragserver.residual_ms"] = metric{run.reads.all().percentile(50) - medianFloat(readSums), "ms"}
	out["replay.trace_overhead"] = metric{(traced.Seconds() - plain.Seconds()) / plain.Seconds(), "ratio"}
	late := 0.0
	if run.writes != nil {
		late = run.writes.late.mean()
	}
	out["loadgen.writer_late_ms"] = metric{late, "ms"}

	fmt.Fprintf(w, "  traced replay: %d operations (%d reads, %d updates), %d spans in %s; untraced %.1f ms, traced %.1f ms\n",
		len(ops), c.reads, c.updates, len(spans), path, ms(plain), ms(traced))
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", k, out[k].Value, out[k].Unit)
	}
	return out, nil
}
