// Differential, persistence, and lifecycle tests for the store-backed
// server: incremental re-analysis must be byte-identical to cold
// analysis, a warm restart must serve everything from disk with zero
// re-analyses, and damage must degrade to recomputation, not loss.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"schemaevo/internal/faultinject"
	"schemaevo/internal/server"
	"schemaevo/internal/telemetry"
	"schemaevo/internal/vcs"
)

// evolvingRepo returns the first n commits (4 <= n <= 8) of a fixed
// eight-commit DDL evolution: each prefix is a valid submission, and each
// longer prefix extends the shorter ones — the shape the incremental
// path needs to prove before reusing a cached parse.
func evolvingRepo(name string, n int) *vcs.Repo {
	day := func(y int, m time.Month, d int) time.Time {
		return time.Date(y, m, d, 9, 30, 0, 0, time.UTC)
	}
	all := []vcs.Commit{
		{ID: "e1", Time: day(2018, 3, 5), SrcLines: 100, Files: map[string]string{
			"db/schema.sql": "CREATE TABLE users (id INT PRIMARY KEY, name TEXT);",
		}},
		{ID: "e2", Time: day(2018, 4, 11), SrcLines: 140, Files: map[string]string{
			"db/schema.sql": "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, email TEXT);\nCREATE TABLE orders (id INT PRIMARY KEY, user_id INT);",
		}},
		{ID: "e3", Time: day(2018, 7, 2), SrcLines: 90},
		{ID: "e4", Time: day(2018, 9, 23), SrcLines: 220, Files: map[string]string{
			"db/schema.sql": "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, email TEXT);\nCREATE TABLE orders (id INT PRIMARY KEY, user_id INT, total INT);\nCREATE TABLE items (id INT PRIMARY KEY, order_id INT, sku TEXT);",
		}},
		{ID: "e5", Time: day(2019, 2, 14), SrcLines: 180, Files: map[string]string{
			"db/schema.sql": "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, email TEXT, active BOOLEAN);\nCREATE TABLE orders (id INT PRIMARY KEY, user_id INT, total INT);\nCREATE TABLE items (id INT PRIMARY KEY, order_id INT, sku TEXT);",
		}},
		{ID: "e6", Time: day(2019, 8, 30), SrcLines: 120},
		{ID: "e7", Time: day(2020, 1, 7), SrcLines: 260, Files: map[string]string{
			"db/schema.sql": "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, email TEXT, active BOOLEAN);\nCREATE TABLE orders (id INT PRIMARY KEY, user_id INT, total INT, placed_at TIMESTAMP);\nCREATE TABLE items (id INT PRIMARY KEY, order_id INT, sku TEXT);",
		}},
		{ID: "e8", Time: day(2020, 6, 19), SrcLines: 150, Files: map[string]string{
			"db/schema.sql": "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, email TEXT, active BOOLEAN);\nCREATE TABLE orders (id INT PRIMARY KEY, user_id INT, total INT, placed_at TIMESTAMP);\nCREATE TABLE items (id INT PRIMARY KEY, order_id INT, sku TEXT, qty INT);",
		}},
	}
	return &vcs.Repo{Name: name, Commits: append([]vcs.Commit(nil), all[:n]...)}
}

// TestIncrementalDifferential is the service-level differential suite:
// submitting versions 4..8 of one project in sequence rides the
// incremental path for every extension, and each response — plus the
// follow-up GET and the final aggregates — is byte-identical to a cold
// server analyzing the same version from scratch.
func TestIncrementalDifferential(t *testing.T) {
	warm, warmURL := newService(t, server.Config{})

	var warmBodies [][]byte
	var lastID string
	for n := 4; n <= 8; n++ {
		status, hdr, body := post(t, warmURL.URL, evolvingRepo("evolving-project", n))
		if status != http.StatusOK {
			t.Fatalf("v%d submit: status %d, body %s", n, status, body)
		}
		wantState := "miss"
		if n > 4 {
			wantState = "incremental"
		}
		if got := hdr.Get("X-Cache"); got != wantState {
			t.Fatalf("v%d submit X-Cache = %q, want %q", n, got, wantState)
		}
		warmBodies = append(warmBodies, body)
		var wire struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatal(err)
		}
		lastID = wire.ID
	}
	if got := warm.Analyses(); got != 1 {
		t.Fatalf("full analyses = %d, want 1 (only v4)", got)
	}
	if got := warm.Incrementals(); got != 4 {
		t.Fatalf("incremental analyses = %d, want 4 (v5..v8)", got)
	}

	// The differential check proper: a cold server re-analyzes each
	// version from nothing; its bodies must match the warm server's
	// byte for byte.
	for i, n := 4, 0; i <= 8; i, n = i+1, n+1 {
		_, cold := newService(t, server.Config{})
		status, hdr, body := post(t, cold.URL, evolvingRepo("evolving-project", i))
		if status != http.StatusOK {
			t.Fatalf("cold v%d: status %d", i, status)
		}
		if hdr.Get("X-Cache") != "miss" {
			t.Fatalf("cold v%d X-Cache = %q, want miss", i, hdr.Get("X-Cache"))
		}
		if !bytes.Equal(body, warmBodies[n]) {
			t.Errorf("v%d: incremental body differs from cold analysis\n--- incremental ---\n%s\n--- cold ---\n%s",
				i, warmBodies[n], body)
		}
	}

	// The GET view of the final version agrees with its submit body.
	_, _, got := do(t, http.MethodGet, warmURL.URL+"/v1/projects/"+lastID, nil)
	if !bytes.Equal(got, warmBodies[len(warmBodies)-1]) {
		t.Fatal("GET body differs from the incremental submit body")
	}

	// Aggregates saw five versions of one name: exactly one live member.
	_, _, stats := do(t, http.MethodGet, warmURL.URL+"/v1/corpus/stats", nil)
	var sw struct {
		Projects int `json:"projects"`
		Analyzed int `json:"analyzed"`
	}
	if err := json.Unmarshal(stats, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Projects != 1 || sw.Analyzed != 1 {
		t.Fatalf("stats = %d/%d, want 1/1 (overwrites must not accumulate)", sw.Analyzed, sw.Projects)
	}
}

// TestWarmRestartServesFromDisk is the acceptance e2e at package level:
// a server with a disk store is fed several projects and shut down; a
// second server over the same directory serves every project from the
// disk tier — byte-identically, with zero analyses of any kind — and its
// aggregate endpoints agree with the pre-restart state.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()

	first, hs1 := newService(t, server.Config{StoreDir: dir, StoreShards: 4})
	type proj struct {
		id   string
		body []byte
	}
	var projects []proj
	for i := 0; i < 5; i++ {
		r := evolvingRepo(fmt.Sprintf("persisted-%02d", i), 4+i%5)
		status, _, body := post(t, hs1.URL, r)
		if status != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, status)
		}
		var wire struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatal(err)
		}
		projects = append(projects, proj{id: wire.ID, body: body})
	}
	_, _, statsBefore := do(t, http.MethodGet, hs1.URL+"/v1/corpus/stats", nil)
	_, _, patternsBefore := do(t, http.MethodGet, hs1.URL+"/v1/corpus/patterns", nil)
	hs1.Close()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	second, err := server.New(context.Background(), server.Config{StoreDir: dir, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	hs2 := newTestServer(t, second)

	if got := second.Stored(); got != 5 {
		t.Fatalf("restarted store holds %d projects, want 5", got)
	}
	for i, p := range projects {
		status, hdr, body := do(t, http.MethodGet, hs2.URL+"/v1/projects/"+p.id, nil)
		if status != http.StatusOK {
			t.Fatalf("restart GET %d: status %d", i, status)
		}
		if hdr.Get("X-Cache") != "hit" {
			t.Fatalf("restart GET %d X-Cache = %q, want hit", i, hdr.Get("X-Cache"))
		}
		if !bytes.Equal(body, p.body) {
			t.Fatalf("restart GET %d: body differs from the original submission", i)
		}
	}
	// Zero re-analyses of any kind: the whole restart was decode-only.
	if second.Analyses() != 0 || second.Incrementals() != 0 {
		t.Fatalf("restart ran %d full / %d incremental analyses, want 0/0",
			second.Analyses(), second.Incrementals())
	}
	rep := tel.Snapshot()
	if rep.Store.DiskHits == 0 {
		t.Fatal("restart served no disk hits; the disk tier was not exercised")
	}
	for _, st := range rep.Stages {
		if (st.Name == "analyze.exec" || st.Name == "analyze.incr") && st.Jobs != 0 {
			t.Fatalf("telemetry %s jobs = %d after warm restart, want 0", st.Name, st.Jobs)
		}
	}

	// The aggregates rebuilt from disk agree with the live ones.
	_, _, statsAfter := do(t, http.MethodGet, hs2.URL+"/v1/corpus/stats", nil)
	if !bytes.Equal(statsBefore, statsAfter) {
		t.Errorf("corpus stats drifted across restart\n--- before ---\n%s\n--- after ---\n%s", statsBefore, statsAfter)
	}
	_, _, patternsAfter := do(t, http.MethodGet, hs2.URL+"/v1/corpus/patterns", nil)
	if !bytes.Equal(patternsBefore, patternsAfter) {
		t.Errorf("corpus patterns drifted across restart")
	}

	// And the restarted server keeps extending incrementally: version 8
	// of a project whose v7 lives only on disk still takes the
	// incremental path.
	status, hdr, _ := post(t, hs2.URL, evolvingRepo("persisted-03", 8))
	if status != http.StatusOK || hdr.Get("X-Cache") != "incremental" {
		t.Fatalf("post-restart extension: status %d X-Cache %q, want 200 incremental", status, hdr.Get("X-Cache"))
	}
}

// newTestServer wraps httptest setup for an already-constructed server.
func newTestServer(t *testing.T, srv *server.Server) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return hs
}

// TestQuarantineReanalyzedOnDemand damages one persisted result record
// under a restarted server and asserts the project is re-analyzed from
// its snapshot on first GET — served 200 "reanalyzed", byte-identical —
// rather than lost.
func TestQuarantineReanalyzedOnDemand(t *testing.T) {
	dir := t.TempDir()
	first, hs1 := newService(t, server.Config{StoreDir: dir, StoreShards: 1})
	r := evolvingRepo("quarantine-me", 6)
	status, _, body := post(t, hs1.URL, r)
	if status != http.StatusOK {
		t.Fatalf("submit: status %d", status)
	}
	var wire struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	hs1.Close()
	first.Close()

	// Flip bytes in the tail of the single segment — the result record
	// is written after the source record, so tail damage hits it.
	seg := filepath.Join(dir, "shard-000.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for off := len(data) - 40; off < len(data)-20; off++ {
		data[off] ^= 0xA5
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	second, err := server.New(context.Background(), server.Config{StoreDir: dir, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	hs2 := newTestServer(t, second)

	status, hdr, got := do(t, http.MethodGet, hs2.URL+"/v1/projects/"+wire.ID, nil)
	if status != http.StatusOK {
		t.Fatalf("quarantined GET: status %d, want 200 via re-analysis (body %s)", status, got)
	}
	if hdr.Get("X-Cache") != "reanalyzed" {
		t.Fatalf("quarantined GET X-Cache = %q, want reanalyzed", hdr.Get("X-Cache"))
	}
	if !bytes.Equal(got, body) {
		t.Fatal("re-analyzed body differs from the original submission")
	}
	if rep := tel.Snapshot(); rep.Store.Quarantined == 0 || rep.Store.Reanalyses != 1 {
		t.Fatalf("telemetry: quarantined=%d reanalyses=%d, want >0 and 1",
			rep.Store.Quarantined, rep.Store.Reanalyses)
	}
}

// TestRestartLeavesDamagedResultOut flips one byte of one stored result
// between restarts. The restarted server quarantines that record, leaves
// the project out of both aggregates (they read as if it had never been
// submitted), serves the intact projects from disk (the hot tier starts
// empty), and re-analyzes the damaged one on its first GET, after which
// both aggregates are back to their pre-restart bytes.
func TestRestartLeavesDamagedResultOut(t *testing.T) {
	repos := []*vcs.Repo{
		evolvingRepo("intact-a", 5),
		evolvingRepo("intact-b", 7),
		evolvingRepo("damaged", 6), // submitted last: its result ends the segment
	}
	aggregates := func(base string) (stats, patterns []byte) {
		t.Helper()
		_, _, stats = do(t, http.MethodGet, base+"/v1/corpus/stats", nil)
		_, _, patterns = do(t, http.MethodGet, base+"/v1/corpus/patterns", nil)
		return stats, patterns
	}
	_, ref := newService(t, server.Config{})
	for _, r := range repos[:2] {
		submitID(t, ref.URL, r)
	}
	refStats, refPatterns := aggregates(ref.URL)

	dir := t.TempDir()
	first, hs1 := newService(t, server.Config{StoreDir: dir, StoreShards: 1})
	var ids []string
	var bodies [][]byte
	for _, r := range repos {
		status, _, body := post(t, hs1.URL, r)
		if status != http.StatusOK {
			t.Fatalf("submit %s: status %d", r.Name, status)
		}
		ids, bodies = append(ids, wireID(t, body)), append(bodies, body)
	}
	statsBefore, patternsBefore := aggregates(hs1.URL)
	hs1.Close()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, "shard-000.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-30] ^= 0xFF // inside the last record's body
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	second, err := server.New(context.Background(), server.Config{StoreDir: dir, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	hs2 := newTestServer(t, second)
	if rep := tel.Snapshot(); rep.Store.Quarantined != 1 {
		t.Fatalf("restart quarantined %d records, want 1", rep.Store.Quarantined)
	}
	if stats, patterns := aggregates(hs2.URL); !bytes.Equal(stats, refStats) || !bytes.Equal(patterns, refPatterns) {
		t.Fatalf("aggregates after restart differ from a server that never stored the damaged project\n--- stats ---\n%s\n--- patterns ---\n%s", stats, patterns)
	}
	for i := range repos[:2] {
		status, hdr, body := do(t, http.MethodGet, hs2.URL+"/v1/projects/"+ids[i], nil)
		if status != http.StatusOK || hdr.Get("X-Cache") != "hit" || !bytes.Equal(body, bodies[i]) {
			t.Fatalf("GET %s: status %d, X-Cache %q, body equal %v", repos[i].Name, status, hdr.Get("X-Cache"), bytes.Equal(body, bodies[i]))
		}
	}
	if rep := tel.Snapshot(); rep.Store.HotHits != 0 || rep.Store.DiskHits != 2 {
		t.Fatalf("first GETs after restart: %d hot hits, %d disk hits; want 0 and 2 (the hot tier starts empty)", rep.Store.HotHits, rep.Store.DiskHits)
	}
	status, hdr, body := do(t, http.MethodGet, hs2.URL+"/v1/projects/"+ids[2], nil)
	if status != http.StatusOK || hdr.Get("X-Cache") != "reanalyzed" || !bytes.Equal(body, bodies[2]) {
		t.Fatalf("GET damaged: status %d, X-Cache %q, body equal %v; want 200, reanalyzed, equal", status, hdr.Get("X-Cache"), bytes.Equal(body, bodies[2]))
	}
	if stats, patterns := aggregates(hs2.URL); !bytes.Equal(stats, statsBefore) || !bytes.Equal(patterns, patternsBefore) {
		t.Fatal("aggregates after the re-analysis differ from those before the restart")
	}
}

// TestDeleteLifecycle covers DELETE /v1/projects/{id}: a submitted
// project disappears from every read path and the aggregates, stays
// dead across a restart (the tombstone), corpus projects are immutable,
// and unknown IDs 404.
func TestDeleteLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv, hs := newService(t, server.Config{Corpus: testCorpus(t), StoreDir: dir})

	_, _, body := post(t, hs.URL, evolvingRepo("doomed-project", 5))
	var wire struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	if srv.Stored() != 1 {
		t.Fatalf("Stored = %d, want 1", srv.Stored())
	}

	status, _, delBody := do(t, http.MethodDelete, hs.URL+"/v1/projects/"+wire.ID, nil)
	if status != http.StatusOK {
		t.Fatalf("delete: status %d, body %s", status, delBody)
	}
	var dw struct {
		Status string `json:"status"`
		ID     string `json:"id"`
	}
	if err := json.Unmarshal(delBody, &dw); err != nil || dw.Status != "deleted" || dw.ID != wire.ID {
		t.Fatalf("delete body malformed: %s", delBody)
	}
	if status, _, _ := do(t, http.MethodGet, hs.URL+"/v1/projects/"+wire.ID, nil); status != http.StatusNotFound {
		t.Fatalf("deleted project GET: status %d, want 404", status)
	}
	if status, _, _ := do(t, http.MethodDelete, hs.URL+"/v1/projects/"+wire.ID, nil); status != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", status)
	}
	var sw struct {
		Projects int `json:"projects"`
	}
	_, _, stats := do(t, http.MethodGet, hs.URL+"/v1/corpus/stats", nil)
	if err := json.Unmarshal(stats, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Projects != 12 {
		t.Fatalf("stats projects = %d after delete, want corpus-only 12", sw.Projects)
	}

	// Corpus projects are immutable.
	_, _, patterns := do(t, http.MethodGet, hs.URL+"/v1/corpus/patterns", nil)
	var pats struct {
		Groups []struct {
			Projects []struct {
				ID string `json:"id"`
			} `json:"projects"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(patterns, &pats); err != nil {
		t.Fatal(err)
	}
	var corpusID string
	for _, g := range pats.Groups {
		if len(g.Projects) > 0 {
			corpusID = g.Projects[0].ID
			break
		}
	}
	if corpusID == "" {
		t.Fatal("corpus has no analyzed projects")
	}
	if status, _, _ := do(t, http.MethodDelete, hs.URL+"/v1/projects/"+corpusID, nil); status != http.StatusForbidden {
		t.Fatalf("corpus delete: status %d, want 403", status)
	}

	// The tombstone keeps the project dead across a restart.
	hs.Close()
	srv.Close()
	second, err := server.New(context.Background(), server.Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	hs2 := newTestServer(t, second)
	if status, _, _ := do(t, http.MethodGet, hs2.URL+"/v1/projects/"+wire.ID, nil); status != http.StatusNotFound {
		t.Fatalf("deleted project resurrected after restart: status %d", status)
	}
	if second.Stored() != 0 {
		t.Fatalf("restarted Stored = %d, want 0", second.Stored())
	}
}

// TestAggregatesSurviveRestart rebuilds the aggregate index from disk
// after joins, a supersede, a DELETE and submissions reusing corpus
// project names: both documents and their ETags must be identical
// before and after the restart, and every group in name, then ID order.
func TestAggregatesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	c := testCorpus(t)
	first, hs1 := newService(t, server.Config{Corpus: c, StoreDir: dir})

	var ids []string
	submit := func(r *vcs.Repo) {
		t.Helper()
		status, _, body := post(t, hs1.URL, r)
		if status != http.StatusOK {
			t.Fatalf("submit %s: status %d, body %s", r.Name, status, body)
		}
		ids = append(ids, wireID(t, body))
	}
	for i := 0; i < 8; i++ {
		submit(evolvingRepo(fmt.Sprintf("restart-%02d", i), 4+i%5))
	}
	// Copies of corpus histories under names sorting before every corpus
	// name land in the corpus projects' groups, so the restart's bulk
	// load must sort them in.
	for _, p := range c.Projects[:4] {
		r := *p.Repo
		r.Name = "restart-" + p.Name
		submit(&r)
	}
	reused := c.Projects[0].Name
	submit(evolvingRepo(reused, 6))
	submit(evolvingRepo(c.Projects[1].Name, 4))
	submit(evolvingRepo("restart-01", 8))
	if status, _, body := do(t, http.MethodDelete, hs1.URL+"/v1/projects/"+ids[2], nil); status != http.StatusOK {
		t.Fatalf("delete: status %d, body %s", status, body)
	}

	get := func(base, path string) ([]byte, string) {
		t.Helper()
		status, hdr, body := do(t, http.MethodGet, base+path, nil)
		if status != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, status)
		}
		return body, hdr.Get("ETag")
	}
	statsBefore, statsTag := get(hs1.URL, "/v1/corpus/stats")
	patternsBefore, patternsTag := get(hs1.URL, "/v1/corpus/patterns")
	if n := bytes.Count(patternsBefore, []byte(`"name": "`+reused+`"`)); n != 2 {
		t.Fatalf("patterns list %q %d times, want the corpus project and the submission", reused, n)
	}
	var doc struct {
		Groups []struct {
			Pattern  string `json:"pattern"`
			Projects []struct {
				Name string `json:"name"`
				ID   string `json:"id"`
			} `json:"projects"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(patternsBefore, &doc); err != nil {
		t.Fatal(err)
	}
	mixed := false
	for _, g := range doc.Groups {
		for i := 1; i < len(g.Projects); i++ {
			a, b := g.Projects[i-1], g.Projects[i]
			if a.Name > b.Name || a.Name == b.Name && a.ID > b.ID {
				t.Fatalf("group %s lists %s/%s before %s/%s, want name then ID order", g.Pattern, a.Name, a.ID, b.Name, b.ID)
			}
			mixed = mixed || strings.HasPrefix(a.Name, "restart-") != strings.HasPrefix(b.Name, "restart-")
		}
	}
	if !mixed {
		t.Fatal("no group mixes corpus and submitted projects; the restart does not exercise the bulk sort")
	}
	hs1.Close()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := server.New(context.Background(), server.Config{Corpus: testCorpus(t), StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	hs2 := newTestServer(t, second)
	statsAfter, statsTag2 := get(hs2.URL, "/v1/corpus/stats")
	patternsAfter, patternsTag2 := get(hs2.URL, "/v1/corpus/patterns")
	if !bytes.Equal(statsBefore, statsAfter) || statsTag != statsTag2 {
		t.Errorf("corpus stats drifted across restart (ETag %s → %s)\n--- before ---\n%s\n--- after ---\n%s", statsTag, statsTag2, statsBefore, statsAfter)
	}
	if !bytes.Equal(patternsBefore, patternsAfter) || patternsTag != patternsTag2 {
		t.Errorf("corpus patterns drifted across restart (ETag %s → %s)\n--- before ---\n%s\n--- after ---\n%s", patternsTag, patternsTag2, patternsBefore, patternsAfter)
	}
}

// submitID posts r and returns the ID of the acked submission.
func submitID(t *testing.T, baseURL string, r *vcs.Repo) string {
	t.Helper()
	status, _, body := post(t, baseURL, r)
	if status != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", status, body)
	}
	var wire struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	return wire.ID
}

// TestTornSubmitIsNotAcked: a submission whose store flush tears did not
// land, so it answers 5xx and its ID is not served — not even from a
// cache while the process lives.
func TestTornSubmitIsNotAcked(t *testing.T) {
	_, mem := newService(t, server.Config{})
	id := submitID(t, mem.URL, submitRepo())

	_, hs := newService(t, server.Config{
		StoreDir: t.TempDir(),
		Fault:    siteInjector("store.flush", faultinject.KindErr),
	})
	for attempt := 0; attempt < 2; attempt++ {
		if status, _, body := post(t, hs.URL, submitRepo()); status < 500 {
			t.Fatalf("torn submit %d: status %d, body %s; want 5xx", attempt, status, body)
		}
		if status, _, body := do(t, http.MethodGet, hs.URL+"/v1/projects/"+id, nil); status != http.StatusNotFound {
			t.Fatalf("GET after torn submit %d: status %d, body %s; want 404", attempt, status, body)
		}
	}
}

// TestFailedDeleteIsNotAcked: a DELETE whose tombstone did not land
// answers 503 with Retry-After on a full disk and 500 on a torn flush,
// never "deleted"; the project keeps serving, then and after a restart.
func TestFailedDeleteIsNotAcked(t *testing.T) {
	dir := t.TempDir()
	first, hs := newService(t, server.Config{StoreDir: dir})
	id := submitID(t, hs.URL, submitRepo())
	hs.Close()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		site   string
		status int
	}{
		{"store.flush", http.StatusInternalServerError},
		{"store.diskfull", http.StatusServiceUnavailable},
	} {
		srv, hs := newService(t, server.Config{StoreDir: dir, Fault: siteInjector(tc.site, faultinject.KindErr)})
		status, hdr, body := do(t, http.MethodDelete, hs.URL+"/v1/projects/"+id, nil)
		if status != tc.status {
			t.Fatalf("%s: DELETE status %d, body %s; want %d", tc.site, status, body, tc.status)
		}
		if status == http.StatusServiceUnavailable && hdr.Get("Retry-After") == "" {
			t.Fatalf("%s: 503 without Retry-After", tc.site)
		}
		if status, _, body := do(t, http.MethodGet, hs.URL+"/v1/projects/"+id, nil); status != http.StatusOK {
			t.Fatalf("%s: GET after failed DELETE: status %d, body %s; want 200", tc.site, status, body)
		}
		hs.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}

	_, hs = newService(t, server.Config{StoreDir: dir})
	if status, _, body := do(t, http.MethodGet, hs.URL+"/v1/projects/"+id, nil); status != http.StatusOK {
		t.Fatalf("GET after restart: status %d, body %s; want 200", status, body)
	}
}
