package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/pipeline"
	"schemaevo/internal/server"
	"schemaevo/internal/store"
	"schemaevo/internal/telemetry"
	"schemaevo/internal/vcs"
	"schemaevo/schemaevoclient"
)

// serveTraceInput is the stored state the serve replay starts from: two
// copies of the preloaded store, one for an in-process server and one
// for the direct layer calls, and the preloaded IDs per slot.
type serveTraceInput struct {
	serverDir, directDir string
	current              map[int]string
	transportMs          float64 // mean loopback round trip of GET /readyz
}

func snapshotStore(storeDir, dir string, current map[int]string) (*serveTraceInput, error) {
	in := &serveTraceInput{
		serverDir: filepath.Join(dir, "trace-server"),
		directDir: filepath.Join(dir, "trace-direct"),
		current:   map[int]string{},
	}
	for k, v := range current {
		in.current[k] = v
	}
	if err := copyDir(storeDir, in.serverDir); err != nil {
		return nil, err
	}
	return in, copyDir(storeDir, in.directDir)
}

// transportSamples is how many back-to-back /readyz round trips
// measure the loopback transport.
const transportSamples = 500

// measureTransport times back-to-back GET /readyz round trips to the idle
// daemon through the generator's HTTP client. The same request answered
// in process is subtracted later, leaving the HTTP transport and the
// kernel's loopback on a warm path. The wake-ups an open-loop request
// pays after an idle gap, and its contention with the generator, are not
// in it: on serve-read, a /readyz probe sent every 20 ms during the
// nominal step had a median round trip of 0.55 to 0.57 ms, over twice the
// step's median GET.
func measureTransport(g *gen) (float64, error) {
	var total time.Duration
	for i := 0; i < transportSamples; i++ {
		start := time.Now()
		status, err := g.getStatus(context.Background(), "/readyz")
		total += time.Since(start)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("readyz: status %d, %v", status, err)
		}
	}
	return ms(total) / transportSamples, nil
}

// handlerTransport answers a client's requests by calling the in-process
// server's ServeHTTP, timed as a handler span under the op being
// replayed when a tracer is set.
type handlerTransport struct {
	srv    *server.Server
	tr     *tracer
	id     string
	parent int
}

func (h *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	if h.tr == nil {
		h.srv.ServeHTTP(rec, req)
	} else {
		h.tr.time("handler", h.id, h.parent, func() { h.srv.ServeHTTP(rec, req) })
	}
	return rec.Result(), nil
}

// getOK GETs url through hc and reads the whole answer, which must be
// a 200.
func getOK(hc *http.Client, url string) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// inProcess is the base URL of requests answered by handlerTransport.
const inProcess = "http://in-process"

// traceServe replays ops single-threaded twice per op. First through the
// generator's client, schemaevoclient, whose transport calls an
// in-process server.New's ServeHTTP: the client span minus its handler
// span is the client row. Then through the layers' public functions on a
// private store.Open — decode and validate, fingerprint, store lookups,
// result and source decode, incremental or full analysis, encode and put
// — following the path the server took for that op; handler.other is the
// handler total minus those layers. transport is measured on its own,
// and gen.queue_wait comes from the untraced nominal step.
func traceServe(cfg *config, name string, ops []op, in *serveTraceInput, nominal *stepStats) (map[string]float64, *layerTable, error) {
	ctx := context.Background()
	tel := telemetry.New()
	// The daemon's default cache sizes, as the untraced run uses.
	srv, err := server.New(ctx, server.Config{StoreDir: in.serverDir, Telemetry: tel})
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	st, err := store.Open(store.Config{Dir: in.directDir})
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()

	tr := newTracer()
	ht := &handlerTransport{srv: srv, tr: tr}
	hc := &http.Client{Transport: ht}
	cl := schemaevoclient.New(schemaevoclient.Config{BaseURL: inProcess, HTTPClient: hc, MaxAttempts: 1})
	current := in.current
	etags := map[string]string{}
	for i, o := range ops {
		id := fmt.Sprint(i)
		kind := o.kind
		var pid string // the project a GET reads
		hits0 := tel.Snapshot().Render.Hits
		root := tr.open("client", id, -1)
		ht.id, ht.parent = id, root
		switch kind {
		case opNew, opExtend, opResubmit:
			var p *schemaevoclient.Project
			if p, err = cl.Submit(ctx, o.body()); err == nil && kind == opExtend {
				current[o.key] = p.ID
			}
		case opGet, opCond:
			pid = current[o.key]
			etag := ""
			if kind == opCond {
				if etag = etags[pid]; etag == "" {
					kind = opGet
				}
			}
			var tag string
			var notModified bool
			_, tag, notModified, err = cl.GetConditional(ctx, pid, etag)
			if err == nil && notModified != (kind == opCond) {
				err = fmt.Errorf("not modified %t for a %s", notModified, kind)
			}
			if kind == opGet {
				etags[pid] = tag
			}
		case opStats:
			err = getOK(hc, inProcess+"/v1/corpus/stats")
		case opPatterns:
			err = getOK(hc, inProcess+"/v1/corpus/patterns")
		}
		tr.close(root)
		if err != nil {
			return nil, nil, fmt.Errorf("traced %s op %d: %w", kind, i, err)
		}
		renderHit := tel.Snapshot().Render.Hits > hits0

		root = tr.open("direct", id, -1)
		switch {
		case kind.write():
			err = directSubmit(tr, st, root, id, o.body(), renderHit)
		case (kind == opGet || kind == opCond) && !renderHit:
			err = directGet(tr, st, root, id, pid)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("traced %s op %d: %w", kind, i, err)
		}
		tr.close(root)
	}
	var directTotal time.Duration
	for name, d := range tr.self {
		if name != "client" && name != "handler" && name != "direct" {
			directTotal += d
		}
	}

	// Transport: the loopback round trip of /readyz minus the same request
	// answered in process.
	plain := &http.Client{Transport: &handlerTransport{srv: srv}}
	start := time.Now()
	for i := 0; i < transportSamples; i++ {
		if err := getOK(plain, inProcess+"/readyz"); err != nil {
			return nil, nil, err
		}
	}
	transport := in.transportMs - ms(time.Since(start))/transportSamples
	if err := tr.write(spanPath(cfg, name)); err != nil {
		return nil, nil, err
	}

	n := float64(len(ops))
	perOp := func(layer string) float64 { return ms(tr.self[layer]) / n }
	layers := []string{"wire.decode", "fingerprint", "analyze.full", "analyze.incr", "encode", "store.put",
		"store.get.hot", "store.get.disk", "result.decode", "source.decode"}
	var rows []layerRow
	for _, l := range layers {
		rows = append(rows, layerRow{Layer: l, Calls: tr.calls[l], MsPerOp: perOp(l)})
	}
	other := ms(tr.self["handler"]-directTotal) / n
	rows = append(rows,
		layerRow{Layer: "handler.other", Calls: tr.calls["handler"], MsPerOp: other, Derived: true},
		layerRow{Layer: "client", Calls: tr.calls["client"], MsPerOp: perOp("client")},
		layerRow{Layer: "transport", Calls: transportSamples, MsPerOp: transport},
		layerRow{Layer: "gen.queue_wait", Calls: nominal.Sent, MsPerOp: nominal.MeanWaitMs})
	t := newTable("op", "loopback mean latency", nominal.MeanMs, rows)

	m := zeroLayers()
	for _, r := range rows {
		m[r.Layer+".ms_per_op"] = r.MsPerOp
	}
	m["serve.unattributed_ms_per_op"] = t.Unattributed.MsPerOp
	return m, t, nil
}

// directSubmit follows the server's submit path on the private store:
// decode and validate the body, fingerprint it, and unless the render
// cache answered, serve a stored result, or extend the project's stored
// version incrementally, or analyze it in full, then encode and put.
func directSubmit(tr *tracer, st *store.Store, root int, id string, body []byte, renderHit bool) error {
	var repo vcs.Repo
	var err error
	tr.time("wire.decode", id, root, func() {
		if err = json.Unmarshal(body, &repo); err == nil {
			err = repo.Validate()
		}
	})
	if err != nil {
		return err
	}
	var fp string
	tr.time("fingerprint", id, root, func() { fp = pipeline.FingerprintDialect(&repo, "") })
	if renderHit {
		return nil
	}
	pid := fp[:corpus.IDLen]
	if _, ok, err := directLookup(tr, st, root, id, pid); ok || err != nil {
		return err
	}
	var res *pipeline.CachedResult
	if prevID, ok := st.LatestID(repo.Name); ok {
		prev, found, err := directLookup(tr, st, root, id, prevID)
		if err != nil {
			return err
		}
		if found {
			var prevRepo *vcs.Repo
			tr.time("source.decode", id, root, func() {
				src, ok := st.Source(prevID)
				if !ok {
					err = fmt.Errorf("no stored source for %s", prevID)
					return
				}
				prevRepo, err = pipeline.DecodeRepo(src)
			})
			if err != nil {
				return err
			}
			tr.time("analyze.incr", id, root, func() { res, ok = pipeline.ExtendResult(prev, prevRepo, &repo) })
			if !ok {
				res = nil
			}
		}
	}
	if res == nil {
		tr.time("analyze.full", id, root, func() {
			var r *pipeline.Result
			if r, _, err = pipeline.AnalyzeRepo(context.Background(), &repo, pipeline.Options{}); err == nil {
				res = &pipeline.CachedResult{Fingerprint: fp, Project: repo.Name, History: r.History, Measures: r.Measures}
			}
		})
		if err != nil {
			return err
		}
	}
	var src, out []byte
	tr.time("encode", id, root, func() { src, out = pipeline.EncodeRepo(&repo), pipeline.EncodeResult(res) })
	tr.time("store.put", id, root, func() {
		_, err = st.Put(store.Entry{ID: pid, Name: repo.Name, Fingerprint: fp, Source: src, Result: out})
	})
	return err
}

// directGet follows a render-cache miss of GET /v1/projects/{id}.
func directGet(tr *tracer, st *store.Store, root int, opID, pid string) error {
	_, ok, err := directLookup(tr, st, root, opID, pid)
	if err == nil && !ok {
		err = fmt.Errorf("project %s not stored", pid)
	}
	return err
}

// directLookup times one store read, attributed to the tier that
// answered, and the decode of the result it returned. ok is false when
// the store holds no result for pid; such a miss is left unattributed to
// any layer, as the server's own misses fall in handler.other.
func directLookup(tr *tracer, st *store.Store, root int, opID, pid string) (*pipeline.CachedResult, bool, error) {
	i := tr.open("store.get", opID, root)
	data, tier, ok := st.Get(pid)
	if !ok {
		tr.spans = tr.spans[:i]
		return nil, false, nil
	}
	tr.spans[i].Name = "store.get." + tier
	tr.close(i)
	var res *pipeline.CachedResult
	var err error
	tr.time("result.decode", opID, root, func() { res, err = pipeline.DecodeResult(data) })
	return res, true, err
}
