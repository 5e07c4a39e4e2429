package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"schemaevo/schemaevoclient"
)

// The serving load is an open loop: each step's arrivals follow the
// seeded Poisson stream scaled to the step's rate, sent whatever the
// server's state, over genConns keep-alive connections from this one
// process. When every connection is busy, due requests wait in the
// generator, and that wait counts. A request's latency is completion −
// max(due, dispatcher wake-up): time the dispatcher's own timer overslept
// is excluded and reported separately as lateness.

const genConns = 2

type opKind uint8

const (
	opNew      opKind = iota // a history the store has never seen: full analysis
	opExtend                 // a longer prefix of a stored project: incremental analysis
	opResubmit               // the exact body of a recent submission: render-cache hit
	opGet                    // GET /v1/projects/{id}
	opCond                   // the same GET revalidating a previously returned ETag
	opStats                  // GET /v1/corpus/stats
	opPatterns               // GET /v1/corpus/patterns
	numOpKinds
)

var opNames = [numOpKinds]string{"new", "extend", "resubmit", "get", "cond", "stats", "patterns"}

func (k opKind) String() string { return opNames[k] }

// write reports whether the op is a submission.
func (k opKind) write() bool { return k <= opResubmit }

// op is one request of the stream. A submission on a key (a project
// slot) waits until every earlier op on that key has completed, and a
// read waits for an earlier submission, so each answer is known.
type op struct {
	kind opKind
	key  int      // project slot; -1 for none
	gap  float64  // arrival gap before this op, in mean gaps
	hist *histDoc // submission: the history whose prefix is sent
	k    int      // submission: commits sent
	name string   // submission: project name
	orig int      // resubmit: the op whose answer it must repeat
}

func (o *op) body() []byte { return o.hist.body(o.name, o.k) }

// outcome is what happened to one op.
type outcome struct {
	sent    bool
	ok      bool
	kind    opKind // the kind actually sent (a cond GET without a known ETag goes out plain)
	latency time.Duration
	wait    time.Duration // of the latency, spent queued for a connection
	hash    uint64        // FNV-1a of the response body
}

// gen drives the op stream against one daemon and checks every answer.
type gen struct {
	cl    *schemaevoclient.Client
	hc    *http.Client
	base  string
	ops   []op
	out   []outcome
	begin []time.Time
	next  int // first op not yet sent
	keys  *keyLocks
	bad   atomic.Int64 // 304 answers that carried body bytes

	mu      sync.Mutex
	current map[int]string    // slot -> live project ID
	etags   map[string]string // ID -> last returned ETag
	hashes  map[string]uint64 // ID -> body hash of its first GET
	errs    map[string]int    // failure reason -> count
	example map[string]string // failure reason -> first detail
}

func newGen(base string, ops []op, current map[int]string) *gen {
	g := &gen{
		base:    base,
		ops:     ops,
		out:     make([]outcome, len(ops)),
		begin:   make([]time.Time, len(ops)),
		keys:    newKeyLocks(),
		current: current,
		etags:   map[string]string{},
		hashes:  map[string]uint64{},
		errs:    map[string]int{},
		example: map[string]string{},
	}
	g.hc = &http.Client{Transport: &bodyCheck{
		next: &http.Transport{MaxIdleConnsPerHost: genConns, MaxConnsPerHost: genConns, DisableCompression: true},
		bad:  &g.bad,
	}}
	g.cl = schemaevoclient.New(schemaevoclient.Config{BaseURL: base, HTTPClient: g.hc, MaxAttempts: 1, AttemptTimeout: 30 * time.Second})
	return g
}

func (g *gen) close() { g.hc.CloseIdleConnections() }

// stepStats is one step of a serve run as measured.
type stepStats struct {
	Name          string                    `json:"name"`
	RateRPS       float64                   `json:"rate_rps"`
	From          int                       `json:"from"` // ops[From:From+Sent] were sent
	Sent          int                       `json:"sent"`
	Failed        int                       `json:"failed"`
	P50Ms         float64                   `json:"p50_ms"`
	P90Ms         float64                   `json:"p90_ms"`
	P99Ms         float64                   `json:"p99_ms"`
	Tail          tail                      `json:"tail"`
	MeanMs        float64                   `json:"mean_ms"`      // over every answered op, primary or not
	MeanWaitMs    float64                   `json:"mean_wait_ms"` // of MeanMs, queued in the generator
	PrimaryN      int                       `json:"primary_n"`
	PerKind       map[string]map[string]any `json:"per_kind"`
	LatenessP99Ms float64                   `json:"lateness_p99_ms"`
	QueueMax      int                       `json:"queue_max"`
	BacklogEnd    int                       `json:"backlog_end"`
	Aborted       bool                      `json:"aborted,omitempty"`
	Exhausted     bool                      `json:"exhausted,omitempty"`
	Valid         bool                      `json:"valid"`
	AnsweredPerS  float64                   `json:"answered_per_s"`
	DaemonCPUMs   float64                   `json:"daemon_cpu_ms"`
	GenCPUMs      float64                   `json:"gen_cpu_ms"` // this process, the generator
	WallMs        float64                   `json:"wall_ms"`
}

// abortBacklog bounds a hopelessly overloaded step: once this many
// seconds of arrivals wait in the generator the step stops sending, so a
// run always ends in bounded time.
const abortBacklog = 1.0

// lateValid is the dispatcher lateness (p99) above which a step is
// flagged invalid: its arrivals were not sent when due.
const lateValid = 2 * time.Millisecond

// runStep sends the next ops of the stream for dur and waits for the
// last answer. At a rate above 0 the arrivals are open-loop at that rate;
// at rate 0 the step is closed-loop: a connection sends its next op as
// soon as its previous answer arrives. primary selects the requests whose
// latency the step reports.
func (g *gen) runStep(name string, rate float64, dur time.Duration, primary func(opKind) bool) stepStats {
	st := stepStats{Name: name, RateRPS: rate, From: g.next}
	closed := rate == 0
	buf := len(g.ops) // open loop: never blocks the dispatcher
	if closed {
		buf = 0
	}
	queue := make(chan int, buf)
	var started atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < genConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				started.Add(1)
				g.exec(i)
			}
		}()
	}
	var late []float64
	start := time.Now()
	lastWake := start
	at := 0.0 // seconds from start to the next arrival
	for {
		if g.next == len(g.ops) {
			// A closed-loop step just ends early; its throughput holds.
			st.Exhausted = !closed
			break
		}
		i := g.next
		if closed {
			if time.Since(start) >= dur {
				break
			}
			g.next++
			g.keys.acquire(g.ops[i].key, g.ops[i].kind.write())
			g.begin[i] = time.Now()
			queue <- i
			st.Sent++
			continue
		}
		at += g.ops[i].gap / rate
		if at >= dur.Seconds() {
			break
		}
		g.next++
		due := start.Add(time.Duration(at * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			lastWake = time.Now()
			late = append(late, ms(lastWake.Sub(due)))
		}
		g.begin[i] = due
		if lastWake.After(due) {
			g.begin[i] = lastWake
		}
		g.keys.acquire(g.ops[i].key, g.ops[i].kind.write())
		queue <- i
		st.Sent++
		backlog := st.Sent - int(started.Load())
		st.QueueMax = max(st.QueueMax, backlog)
		if float64(backlog) > rate*abortBacklog {
			st.Aborted = true
			break
		}
	}
	st.BacklogEnd = st.Sent - int(started.Load())
	close(queue)
	wg.Wait()
	st.WallMs = ms(time.Since(start))

	var prim, all, waits []float64
	perKind := map[opKind][]float64{}
	for i := st.From; i < st.From+st.Sent; i++ {
		o := g.out[i]
		if !o.ok {
			st.Failed++
			continue
		}
		l := ms(o.latency)
		all = append(all, l)
		waits = append(waits, ms(o.wait))
		perKind[o.kind] = append(perKind[o.kind], l)
		if primary(o.kind) {
			prim = append(prim, l)
		}
	}
	st.PrimaryN = len(prim)
	st.AnsweredPerS = float64(len(all)) / (st.WallMs / 1000)
	if len(prim) > 0 {
		st.P50Ms, st.P90Ms, st.P99Ms = quantile(prim, 0.5), quantile(prim, 0.9), quantile(prim, 0.99)
		st.Tail = tailOf(prim)
	}
	if len(all) > 0 {
		st.MeanMs, st.MeanWaitMs = mean(all), mean(waits)
	}
	st.PerKind = map[string]map[string]any{}
	for k, ls := range perKind {
		st.PerKind[k.String()] = map[string]any{"n": len(ls), "p50_ms": median(ls), "p99_ms": quantile(ls, 0.99)}
	}
	if len(late) > 0 {
		st.LatenessP99Ms = quantile(late, 0.99)
	}
	st.Valid = st.LatenessP99Ms <= ms(lateValid)
	return st
}

// exec sends one op, checks its answer and records the outcome.
func (g *gen) exec(i int) {
	o := &g.ops[i]
	res := &g.out[i]
	defer g.keys.release(o.key, o.kind.write())
	res.sent = true
	res.kind = o.kind
	res.wait = time.Since(g.begin[i])
	ctx := context.Background()
	var reason, detail string
	switch o.kind {
	case opNew, opExtend, opResubmit:
		p, err := g.cl.Submit(ctx, o.body())
		res.latency = time.Since(g.begin[i])
		switch {
		case err != nil:
			reason, detail = "submit", err.Error()
		case p.Name != o.name || p.ID == "":
			reason, detail = "submit answer", fmt.Sprintf("project %q id %q for %q", p.Name, p.ID, o.name)
		default:
			res.hash = hashBody(p.Raw)
			if o.kind == opResubmit && res.hash != g.out[o.orig].hash {
				reason, detail = "resubmit bytes", o.name
			}
			if o.kind == opExtend {
				g.mu.Lock()
				g.current[o.key] = p.ID
				g.mu.Unlock()
			}
		}
	case opGet, opCond:
		g.mu.Lock()
		id := g.current[o.key]
		etag := ""
		if o.kind == opCond {
			if etag = g.etags[id]; etag == "" {
				res.kind = opGet
			}
		}
		g.mu.Unlock()
		p, tag, notModified, err := g.cl.GetConditional(ctx, id, etag)
		res.latency = time.Since(g.begin[i])
		switch {
		case err != nil:
			reason, detail = "get", err.Error()
		case res.kind == opCond && !notModified:
			reason, detail = "conditional get", "a full answer for an unchanged project "+id
		case res.kind == opGet && (notModified || p.ID != id):
			reason, detail = "get answer", "wrong project for "+id
		case res.kind == opGet:
			h := hashBody(p.Raw)
			g.mu.Lock()
			if prev, seen := g.hashes[id]; seen && prev != h {
				reason, detail = "get bytes", "changed bytes for unchanged project "+id
			}
			g.hashes[id] = h
			g.etags[id] = tag
			g.mu.Unlock()
		}
	case opStats, opPatterns:
		path := "/v1/corpus/stats"
		if o.kind == opPatterns {
			path = "/v1/corpus/patterns"
		}
		status, err := g.getStatus(ctx, path)
		res.latency = time.Since(g.begin[i])
		if err != nil || status != http.StatusOK {
			reason, detail = "aggregate", fmt.Sprintf("%s: status %d, %v", path, status, err)
		}
	}
	res.ok = reason == ""
	if !res.ok {
		g.mu.Lock()
		g.errs[reason]++
		if _, ok := g.example[reason]; !ok {
			g.example[reason] = detail
		}
		g.mu.Unlock()
	}
}

// getStatus GETs an endpoint the client package has no method for, over
// the same connections, and reads the whole answer.
func (g *gen) getStatus(ctx context.Context, path string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

func hashBody(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// keyLocks is a reader/writer lock per key: reads of a key may overlap,
// a submission on it runs alone. Only the dispatcher acquires.
type keyLocks struct {
	mu      sync.Mutex
	cond    *sync.Cond
	readers map[int]int
	writing map[int]bool
}

func newKeyLocks() *keyLocks {
	k := &keyLocks{readers: map[int]int{}, writing: map[int]bool{}}
	k.cond = sync.NewCond(&k.mu)
	return k
}

func (k *keyLocks) acquire(key int, write bool) {
	if key < 0 {
		return
	}
	k.mu.Lock()
	for k.writing[key] || (write && k.readers[key] > 0) {
		k.cond.Wait()
	}
	if write {
		k.writing[key] = true
	} else {
		k.readers[key]++
	}
	k.mu.Unlock()
}

func (k *keyLocks) release(key int, write bool) {
	if key < 0 {
		return
	}
	k.mu.Lock()
	if write {
		delete(k.writing, key)
	} else if k.readers[key]--; k.readers[key] == 0 {
		delete(k.readers, key)
	}
	k.mu.Unlock()
	k.cond.Broadcast()
}

// bodyCheck verifies, below the client package, that every 304 answer
// has a zero-length body.
type bodyCheck struct {
	next http.RoundTripper
	bad  *atomic.Int64
}

func (b *bodyCheck) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := b.next.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusNotModified {
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(data) > 0 {
		b.bad.Add(1)
	}
	resp.Body = http.NoBody
	return resp, nil
}

// errorSummary renders the generator's failure tally for a check.
func (g *gen) errorSummary() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var errs []error
	for reason, n := range g.errs {
		errs = append(errs, fmt.Errorf("%d %s failures (first: %s)", n, reason, g.example[reason]))
	}
	return errors.Join(errs...)
}
