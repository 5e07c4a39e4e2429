// Black-box tests for the server's dialect configuration: a daemon
// running with Config.Dialect "auto" must report each submission's
// detected dialect on the wire, a forced dialect must appear verbatim,
// and an unknown name must fail construction — not the first analysis.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"schemaevo/internal/server"
	"schemaevo/internal/store"
	"schemaevo/internal/telemetry"
	"schemaevo/internal/vcs"
)

// mysqlRepo is a small fixed history written in unmistakable MySQL.
func mysqlRepo() *vcs.Repo {
	day := func(y int, m time.Month, d int) time.Time {
		return time.Date(y, m, d, 12, 0, 0, 0, time.UTC)
	}
	return &vcs.Repo{
		Name: "dialect-mysql-project",
		Commits: []vcs.Commit{
			{ID: "c1", Time: day(2019, 1, 10), SrcLines: 100, Files: map[string]string{
				"db/schema.sql": "CREATE TABLE `users` (`id` INT AUTO_INCREMENT, `name` VARCHAR(64), PRIMARY KEY (`id`)) ENGINE=InnoDB DEFAULT CHARSET=utf8mb4;",
			}},
			{ID: "c2", Time: day(2020, 6, 1), SrcLines: 150, Files: map[string]string{
				"db/schema.sql": "CREATE TABLE `users` (`id` INT AUTO_INCREMENT, `name` VARCHAR(64), `email` VARCHAR(128), PRIMARY KEY (`id`)) ENGINE=InnoDB DEFAULT CHARSET=utf8mb4;",
			}},
		},
	}
}

func submittedDialect(t *testing.T, baseURL string, r *vcs.Repo) string {
	t.Helper()
	status, _, body := post(t, baseURL, r)
	if status != http.StatusOK {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var resp struct {
		SchemaVersion int    `json:"schema_version"`
		Dialect       string `json:"dialect"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SchemaVersion != server.APISchemaVersion {
		t.Fatalf("schema_version %d, want %d", resp.SchemaVersion, server.APISchemaVersion)
	}
	return resp.Dialect
}

func TestServerDialectAuto(t *testing.T) {
	_, hs := newService(t, server.Config{Corpus: testCorpus(t), Dialect: "auto"})
	if got := submittedDialect(t, hs.URL, mysqlRepo()); got != "mysql" {
		t.Errorf("auto server: dialect %q, want %q", got, "mysql")
	}
	// Dialect-neutral DDL must stay generic under auto.
	if got := submittedDialect(t, hs.URL, submitRepo()); got != "generic" {
		t.Errorf("auto server, neutral input: dialect %q, want %q", got, "generic")
	}
}

func TestServerDialectForced(t *testing.T) {
	_, hs := newService(t, server.Config{Corpus: testCorpus(t), Dialect: "sqlite"})
	if got := submittedDialect(t, hs.URL, submitRepo()); got != "sqlite" {
		t.Errorf("forced server: dialect %q, want %q", got, "sqlite")
	}
}

func TestServerDialectDefaultGeneric(t *testing.T) {
	_, hs := newService(t, server.Config{Corpus: testCorpus(t)})
	if got := submittedDialect(t, hs.URL, mysqlRepo()); got != "generic" {
		t.Errorf("default server: dialect %q, want %q", got, "generic")
	}
}

func TestServerDialectUnknownRejected(t *testing.T) {
	_, err := server.New(context.Background(), server.Config{
		Corpus:    testCorpus(t),
		Dialect:   "oracle",
		Telemetry: telemetry.New(),
	})
	if err == nil {
		t.Fatal("New accepted unknown dialect \"oracle\"")
	}
}

// storedResult reopens a closed server's store directory and returns the
// encoded result it holds for id.
func storedResult(t *testing.T, dir, id string) []byte {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	data, _, ok := st.Get(id)
	if !ok {
		t.Fatalf("store holds no result for %s", id)
	}
	return data
}

// TestIncrementalResultMatchesFullUnderDialectSelection: under every
// dialect selection — "auto", an alias, a canonical name — the result an
// incremental re-analysis stores is byte-identical to the one a full
// analysis of the same history stores, fingerprint included. The
// fingerprint hashes the configured selection, not the dialect the
// history resolved to.
func TestIncrementalResultMatchesFullUnderDialectSelection(t *testing.T) {
	for _, sel := range []string{"auto", "pg", "mysql"} {
		t.Run(sel, func(t *testing.T) {
			stored := func(versions ...int) []byte {
				dir := t.TempDir()
				srv, hs := newService(t, server.Config{StoreDir: dir, Dialect: sel})
				var id string
				for i, n := range versions {
					status, hdr, body := post(t, hs.URL, evolvingRepo("selection-project", n))
					if status != http.StatusOK {
						t.Fatalf("v%d: status %d, body %s", n, status, body)
					}
					want := "miss"
					if i > 0 {
						want = "incremental"
					}
					if got := hdr.Get("X-Cache"); got != want {
						t.Fatalf("v%d X-Cache = %q, want %q", n, got, want)
					}
					id = wireID(t, body)
				}
				hs.Close()
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				return storedResult(t, dir, id)
			}
			incr, full := stored(4, 8), stored(8)
			if !bytes.Equal(incr, full) {
				t.Fatal("incrementally analyzed result differs from the full analysis")
			}
		})
	}
}
