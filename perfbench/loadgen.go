package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shaclfrag/internal/live"
)

// loader drives one server over loopback HTTP. Its transport holds at most
// two connections: a closed-loop client or the open-loop writer each keep
// one request in flight at a time.
type loader struct {
	ds     *dataset
	base   string
	client *http.Client
	// digests is on for workloads whose graph never changes: every
	// response body is then digested and compared with the first response
	// to the same request target.
	digests bool
}

func newLoader(ds *dataset, base string) *loader {
	tr := &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}
	return &loader{ds: ds, base: base, client: &http.Client{Transport: tr}, digests: ds.write == nil}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// readLog is what one closed-loop client saw.
type readLog struct {
	lat       map[opKind]sample
	attempted int
	failed    int
	// seen holds, per request target, the digest of its first response;
	// inconsistent counts later responses to a target that differ from it.
	seen         map[string]response
	inconsistent int
}

// response is the first answer to one request target.
type response struct {
	o   op
	sum [sha256.Size]byte
}

func newReadLog() *readLog {
	return &readLog{lat: map[opKind]sample{}, seen: map[string]response{}}
}

func (r *readLog) merge(o *readLog) {
	for k, s := range o.lat {
		r.lat[k] = append(r.lat[k], s...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.inconsistent += o.inconsistent
	for k, resp := range o.seen {
		r.note(k, resp)
	}
}

func (r *readLog) all() sample {
	var out sample
	for _, s := range r.lat {
		out = append(out, s...)
	}
	return out
}

// read issues one GET and records its latency, from just before the
// request is written to the last body byte read.
func (l *loader) read(o op, log *readLog, buf *bytes.Buffer) {
	path := o.path(l.ds)
	start := time.Now()
	status, err := l.get(path, buf)
	lat := time.Since(start)
	log.attempted++
	if err != nil || status != http.StatusOK {
		log.failed++
		return
	}
	log.lat[o.kind] = append(log.lat[o.kind], lat)
	if !l.digests {
		return
	}
	log.note(path, response{o: o, sum: sha256.Sum256(buf.Bytes())})
}

// note records a response to path, counting it if it differs from the
// first one seen.
func (r *readLog) note(path string, resp response) {
	if prev, ok := r.seen[path]; !ok {
		r.seen[path] = resp
	} else if prev.sum != resp.sum {
		r.inconsistent++
	}
}

func (l *loader) get(path string, buf *bytes.Buffer) (int, error) {
	resp, err := l.client.Get(l.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// closedLoop runs clients that each send their next request when the last
// one completed. next hands out sequence positions; a client stops when
// next reports false.
func (l *loader) closedLoop(clients int, next func() (op, bool)) *readLog {
	logs := make([]*readLog, clients)
	var wg sync.WaitGroup
	for c := range logs {
		logs[c] = newReadLog()
		wg.Add(1)
		go func(log *readLog) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				o, ok := next()
				if !ok {
					return
				}
				l.read(o, log, &buf)
			}
		}(logs[c])
	}
	wg.Wait()
	for _, o := range logs[1:] {
		logs[0].merge(o)
	}
	return logs[0]
}

// warmUp sends ops once, spread over the read clients.
func (l *loader) warmUp(ops []op) *readLog {
	var i atomic.Int64
	return l.closedLoop(l.ds.clients, func() (op, bool) {
		n := int(i.Add(1)) - 1
		if n >= len(ops) {
			return op{}, false
		}
		return ops[n], true
	})
}

// timedReads runs the read sequence until the deadline; requests started
// before it complete and count.
func (l *loader) timedReads(deadline time.Time) *readLog {
	var i atomic.Uint64
	return l.closedLoop(l.ds.clients, func() (op, bool) {
		if !time.Now().Before(deadline) {
			return op{}, false
		}
		return l.ds.read(i.Add(1) - 1), true
	})
}

// writeLog is what the open-loop writer saw.
type writeLog struct {
	lat       sample // from when each update was due to its response
	late      sample // how long after its due time each update was sent
	attempted int
	failed    int
	unchanged int // updates answered changed:false
	due       map[uint64]time.Time
}

// updateReply is the part of the POST /update response the writer checks.
type updateReply struct {
	Epoch   uint64 `json:"epoch"`
	Changed bool   `json:"changed"`
}

// openLoop sends update k at start + k/rate whatever the state of earlier
// ones, up to and including one due at the deadline: the window closes on
// an update, so the state the run ends in does not depend on how many
// reads slipped in after the last one.
func (l *loader) openLoop(start, deadline time.Time) *writeLog {
	log := &writeLog{due: map[uint64]time.Time{}}
	period := time.Duration(float64(time.Second) / l.ds.writeRate)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if due.After(deadline) {
			return log
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		log.late = append(log.late, time.Since(due))
		o := l.ds.write(k)
		log.attempted++
		reply, err := l.post(o)
		if err != nil {
			log.failed++
			continue
		}
		log.lat = append(log.lat, time.Since(due))
		if !reply.Changed {
			log.unchanged++
		}
		log.due[reply.Epoch] = due
	}
}

func (l *loader) post(o op) (updateReply, error) {
	var reply updateReply
	resp, err := l.client.Post(l.base+o.path(l.ds), "application/n-triples", strings.NewReader(o.body()))
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("POST %s: %s", o.path(l.ds), resp.Status)
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return reply, fmt.Errorf("POST %s: %w", o.path(l.ds), err)
	}
	return reply, nil
}

// follower folds one in-process subscription's events into the fragment
// they describe and notes when each epoch's delta arrived.
type follower struct {
	def   int
	sub   *live.Subscription
	lines map[string]bool
	recv  map[uint64]time.Time
	bad   int // events that did not decode
	done  chan struct{}
}

// eventData is the payload of a live event.
type eventData struct {
	Epoch   uint64   `json:"epoch"`
	Added   []string `json:"added"`
	Removed []string `json:"removed"`
}

func follow(m *live.Maintainer, def int) (*follower, error) {
	sub, initial, err := m.Subscribe(def, 0)
	if err != nil {
		return nil, fmt.Errorf("subscribing to definition %d: %w", def, err)
	}
	f := &follower{def: def, sub: sub, lines: map[string]bool{}, recv: map[uint64]time.Time{}, done: make(chan struct{})}
	for _, ev := range initial {
		f.fold(ev)
	}
	go func() {
		defer close(f.done)
		for ev := range sub.Events() {
			f.recv[ev.Epoch] = time.Now()
			f.fold(ev)
		}
	}()
	return f, nil
}

func (f *follower) fold(ev live.Event) {
	var d eventData
	if err := json.Unmarshal(ev.Data, &d); err != nil {
		f.bad++
		return
	}
	if ev.Type == live.EventSnapshot {
		clear(f.lines)
	}
	for _, s := range d.Removed {
		delete(f.lines, s)
	}
	for _, s := range d.Added {
		f.lines[s] = true
	}
}

// stop unsubscribes and waits until every queued event is folded.
func (f *follower) stop(m *live.Maintainer) {
	m.Unsubscribe(f.sub)
	<-f.done
}

// scrape reads /metrics into a map keyed by series (name plus labels).
func (l *loader) scrape() (map[string]float64, error) {
	resp, err := l.client.Get(l.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return out, nil
}

// dataRequests sums the served-request counters of the routes the
// workloads use, over every status.
func dataRequests(m map[string]float64) float64 {
	var n float64
	for k, v := range m {
		if !strings.HasPrefix(k, "fragserver_requests_total{") {
			continue
		}
		for _, r := range []string{`route="/fragment"`, `route="/node"`, `route="/update"`} {
			if strings.Contains(k, r) {
				n += v
			}
		}
	}
	return n
}

// statusCounts lists the request counter deltas by route and status.
func statusCounts(before, after map[string]float64) []string {
	var out []string
	for k, v := range after {
		if strings.HasPrefix(k, "fragserver_requests_total{") {
			if d := v - before[k]; d > 0 {
				out = append(out, fmt.Sprintf("%s %.0f", strings.TrimPrefix(k, "fragserver_requests_total"), d))
			}
		}
	}
	return out
}
