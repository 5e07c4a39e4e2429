package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"schemaevo/internal/server"
	"schemaevo/internal/synth"
	"schemaevo/internal/telemetry"
)

// restartProjects is how many analyzed histories BenchmarkWarmRestart's
// store holds.
const restartProjects = 1024

// restartStore is the store directory BenchmarkWarmRestart restarts over:
// built once per test binary, on first use, and removed by TestMain.
var restartStore struct {
	once sync.Once
	dir  string
	err  error
}

// warmRestartDir returns restartStore's directory, submitting
// restartProjects random histories through a server on the first call.
// Setup fails if any of them is not stored.
func warmRestartDir(b *testing.B) string {
	b.Helper()
	restartStore.once.Do(func() {
		c, err := synth.RandomCorpus(restartProjects, 1)
		if err != nil {
			restartStore.err = err
			return
		}
		if restartStore.dir, err = os.MkdirTemp("", "warm-restart-*"); err != nil {
			restartStore.err = err
			return
		}
		srv, err := server.New(context.Background(), server.Config{StoreDir: restartStore.dir, Telemetry: telemetry.New()})
		if err != nil {
			restartStore.err = err
			return
		}
		defer srv.Close()
		for _, p := range c.Projects {
			body, err := json.Marshal(p.Repo)
			if err != nil {
				restartStore.err = err
				return
			}
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/projects", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				restartStore.err = fmt.Errorf("submitting %s: status %d: %s", p.Name, w.Code, w.Body)
				return
			}
		}
	})
	if restartStore.err != nil {
		b.Fatal(restartStore.err)
	}
	return restartStore.dir
}

// BenchmarkWarmRestart times server.New over a store of restartProjects
// analyzed histories: the store's recovery scan and the aggregate
// rebuild from every stored result, with no corpus and no analysis.
func BenchmarkWarmRestart(b *testing.B) {
	dir := warmRestartDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := server.New(context.Background(), server.Config{StoreDir: dir, Telemetry: telemetry.New()})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if srv.Analyses() != 0 || srv.Stored() == 0 {
			b.Fatalf("restart ran %d analyses over %d stored projects", srv.Analyses(), srv.Stored())
		}
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
