// Command perfbench is the fragserver benchmark: a single-process load
// generator driving an in-process fragserver over loopback HTTP, with at
// most two connections, on inputs generated from a seed.
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// Each run generates its workload's graph, schema and request sequence
// from the seed, builds the server several times (the median build plus
// listener start and cache warm-up is setup_s), runs the timed window and
// then checks every answer against a reference extraction. With --trace 0
// the last line of standard output is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// traced in-process replay of the same sequence. Human-readable lines
// precede it. See README.md for the metric definitions.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"shaclfrag/internal/fragserver"
)

// setupRounds is how many times a run builds the server; setup_s takes
// the median build.
const setupRounds = 3

// spanDir is where a traced run writes its spans, relative to the
// checkout root the benchmark runs from.
const spanDir = ".bench_build/perfbench-spans"

type config struct {
	seed    int64
	seconds int
	trace   bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Int64("seed", 1, "seed generating the data and the request sequence")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced replay, 0 the end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *name == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	ok := true
	for _, w := range selected {
		res, err := runWorkload(w, cfg, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// httpRun is what the timed window produced.
type httpRun struct {
	setup     time.Duration
	reads     *readLog
	writes    *writeLog
	followers []*follower
	elapsed   time.Duration
	heapMB    float64
	before    map[string]float64
	after     map[string]float64
}

// runWorkload runs one workload and reports on w.
func runWorkload(wl workload, cfg config, w io.Writer) (*result, error) {
	ds, err := wl.build(cfg.seed)
	if err != nil {
		return nil, err
	}
	run, warm, err := serve(ds, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "workload %s seed %d: %d s window, %d read client(s)", wl.name, cfg.seed, cfg.seconds, ds.clients)
	if ds.write != nil {
		fmt.Fprintf(w, ", open-loop writer at %g updates/s, %d subscription(s)", ds.writeRate, len(ds.subs))
	}
	fmt.Fprintln(w)

	// Correctness, outside the timed window.
	attempted := run.reads.attempted
	failed := 0
	var problems []string
	note := func(n int, what string) {
		if n > 0 {
			failed += n
			problems = append(problems, fmt.Sprintf("%d %s", n, what))
		}
	}
	note(run.reads.failed, "failed or refused reads")
	note(warm.failed, "failed or refused warm-up reads")
	if ds.write == nil {
		for path, r := range warm.seen {
			run.reads.note(path, r)
		}
		note(run.reads.inconsistent+warm.inconsistent, "responses differing from an earlier response to the same request")
		note(checkReads(ds, run.reads.seen), "distinct requests whose response differs from the reference extraction")
	} else {
		attempted += run.writes.attempted
		note(run.writes.failed, "failed updates")
		note(run.writes.unchanged, "updates answered changed:false")
		note(checkFollowers(ds, run.followers, run.writes.attempted), "subscriptions whose folded events differ from the reference fragment")
	}
	lag, missing := notifyLag(run)
	note(missing, "updates whose delta never reached a subscriber")
	served := int(dataRequests(run.after) - dataRequests(run.before))
	if served != attempted {
		d := served - attempted
		if d < 0 {
			d = -d
		}
		note(d, fmt.Sprintf("requests miscounted (server served %d, generator attempted %d)", served, attempted))
	}
	res := &result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if attempted == 0 {
		res.Attempted, res.Correct = 1, false
		problems = append(problems, "no operation attempted")
	}

	e2e := endToEnd(run, lag)
	report(w, ds, run, lag, e2e)
	fmt.Fprintf(w, "  error_rate %.6g (%d of %d operations)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, p := range problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
	if !cfg.trace {
		res.Metrics = e2e
		return res, nil
	}
	layers, err := tracedReplay(wl, ds, run, cfg, w)
	if err != nil {
		return nil, err
	}
	res.Metrics = layers
	return res, nil
}

// serve builds the server setupRounds times, starts the last build on a
// loopback listener, warms it, and runs the timed window. It returns the
// warm-up's reads too, whose answers are checked like the timed ones.
func serve(ds *dataset, cfg config) (*httpRun, *readLog, error) {
	// Inputs in memory first: setup time starts after generation.
	configs := make([]fragserver.Config, setupRounds)
	for i := range configs {
		configs[i] = fragserver.Config{
			Graph:        ds.graph(),
			Schema:       ds.schema,
			CacheTriples: ds.cacheTriples,
			// Access logs are formatted but discarded: their cost is
			// part of serving, the disk is not.
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		}
	}
	var builds []float64
	var srv *fragserver.Server
	for i := range configs {
		start := time.Now()
		s, err := fragserver.New(configs[i])
		if err != nil {
			return nil, nil, fmt.Errorf("building the server: %w", err)
		}
		builds = append(builds, time.Since(start).Seconds())
		srv = s
		configs[i] = fragserver.Config{} // let the earlier builds go
	}

	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listening: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln, 5*time.Second) }()
	stop := func() error {
		cancel()
		if err := <-served; err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("shutting the server down: %w", err)
		}
		return nil
	}
	l := newLoader(ds, "http://"+ln.Addr().String())
	defer l.close()
	run := &httpRun{}
	for _, def := range ds.subs {
		f, err := follow(srv.Live(), def)
		if err != nil {
			stop() //nolint:errcheck — reporting the subscription error instead
			return nil, nil, err
		}
		run.followers = append(run.followers, f)
	}
	warm := l.warmUp(ds.warm)
	run.setup = time.Duration(medianFloat(builds)*float64(time.Second)) + time.Since(start)

	if run.before, err = l.scrape(); err != nil {
		stop() //nolint:errcheck — reporting the scrape error instead
		return nil, nil, err
	}
	begin := time.Now()
	deadline := begin.Add(time.Duration(cfg.seconds) * time.Second)
	var wg sync.WaitGroup
	if ds.write != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run.writes = l.openLoop(begin, deadline)
		}()
	}
	run.reads = l.timedReads(deadline)
	wg.Wait()
	run.elapsed = time.Since(begin)
	for _, f := range run.followers {
		f.stop(srv.Live())
	}
	// A response can reach the client a moment before the server counts
	// it, so wait briefly for the counters to settle.
	want := float64(run.reads.attempted)
	if run.writes != nil {
		want += float64(run.writes.attempted)
	}
	for tries := 0; ; tries++ {
		if run.after, err = l.scrape(); err != nil {
			stop() //nolint:errcheck — reporting the scrape error instead
			return nil, nil, err
		}
		if dataRequests(run.after)-dataRequests(run.before) >= want || tries == 20 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	// One more read, untimed, before the heap is measured: it makes the
	// server drop pooled extractors of superseded epochs, which a writing
	// workload otherwise leaves behind in numbers that depend on timing.
	var buf bytes.Buffer
	l.read(ds.read(0), newReadLog(), &buf)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	run.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(srv)
	if err := stop(); err != nil {
		return nil, nil, err
	}
	return run, warm, nil
}

// endToEnd computes the end-to-end metrics. The headline latency is the
// workload's reads, or, when it writes, the notification lag: from an
// update being due until its delta reached a subscriber, which covers the
// whole write path.
func endToEnd(run *httpRun, lag sample) map[string]metric {
	ops := run.reads.all()
	if run.writes != nil {
		ops = lag
	}
	_, tail := ops.tail()
	completed := run.reads.attempted - run.reads.failed
	return map[string]metric{
		"op_p50_ms":   {ops.percentile(50), "ms"},
		"op_tail_ms":  {tail, "ms"},
		"reads_per_s": {float64(completed) / run.elapsed.Seconds(), "1/s"},
		"setup_s":     {run.setup.Seconds(), "s"},
		"heap_mb":     {run.heapMB, "MiB"},
	}
}

// notifyLag returns, for every (subscription, update) pair, the time from
// the update being due to its delta reaching the subscriber, and how many
// pairs saw no delta.
func notifyLag(run *httpRun) (sample, int) {
	var lag sample
	missing := 0
	if run.writes == nil {
		return nil, 0
	}
	for _, f := range run.followers {
		for epoch, due := range run.writes.due {
			if at, ok := f.recv[epoch]; ok {
				lag = append(lag, at.Sub(due))
			} else {
				missing++
			}
		}
	}
	return lag, missing
}

// report prints the run's metrics by the names they carry for a user.
func report(w io.Writer, ds *dataset, run *httpRun, lag sample, e2e map[string]metric) {
	line := func(name string, v float64, unit string, extra string) {
		fmt.Fprintf(w, "  %-22s %12.4f %-5s %s\n", name, v, unit, extra)
	}
	lat := func(prefix string, s sample) {
		if len(s) == 0 {
			return
		}
		q, tail := s.tail()
		n := fmt.Sprintf("(n=%d)", len(s))
		line(prefix+"_p50_ms", s.percentile(50), "ms", n)
		if q != 50 {
			line(prefix+"_"+pctName(q)+"_ms", tail, "ms", n)
		}
	}
	lat("fragment", run.reads.lat[opFragment])
	lat("node", run.reads.lat[opNode])
	if run.writes != nil {
		lat("update", run.writes.lat)
		lat("notify_lag", lag)
		_, late := run.writes.late.tail()
		line("writer_late_p50_ms", run.writes.late.percentile(50), "ms", fmt.Sprintf("(tail %.4f ms)", late))
	}
	for _, k := range []string{"op_p50_ms", "op_tail_ms", "reads_per_s", "setup_s", "heap_mb"} {
		m := e2e[k]
		line(k, m.Value, m.Unit, "")
	}
	d := func(name string) float64 { return run.after[name] - run.before[name] }
	if ds.cacheTriples >= 0 {
		fmt.Fprintf(w, "  /metrics deltas: cache hits %.0f misses %.0f evictions %.0f carried %.0f; live re-extractions %.0f\n",
			d("fragserver_cache_hits_total"), d("fragserver_cache_misses_total"),
			d("fragserver_cache_evictions_total"), d("fragserver_cache_carried_total"),
			d("fragserver_live_reextracted_total"))
	}
	byStatus := statusCounts(run.before, run.after)
	sort.Strings(byStatus)
	fmt.Fprintf(w, "  /metrics requests: %s\n", strings.Join(byStatus, ", "))
}
