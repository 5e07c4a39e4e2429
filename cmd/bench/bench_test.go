package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary when the
// corpus workloads re-execute it as a worker. Under -race, each worker's
// exit would otherwise wait out the race runtime's 1-s exit sleep.
func TestMain(m *testing.M) {
	os.Setenv("GORACE", "atexit_sleep_ms=0 "+os.Getenv("GORACE"))
	if path := os.Getenv(workerEnv); path != "" {
		if err := runWorker(path, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json this test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestSmoke runs all four workloads at smoke scale with tracing on, and
// checks that the output names exactly the workloads and metrics
// BENCHMARK.json declares, each with its unit, and that every output
// check passed.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 1 || n > 8 {
		t.Errorf("%d workloads, want 1 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	seen := map[string]bool{}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range bf.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range bf.PerLayer {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) || len(n) > 64 || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	var wantWorkloads []string
	for _, w := range bf.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	if fmt.Sprint(wantWorkloads) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", wantWorkloads, workloadNames)
	}
	sameDefs := func(kind string, file []struct{ Name, Unit, Better string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i].Name != code[i].Name || file[i].Unit != code[i].Unit || file[i].Better != code[i].Better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, the benchmark %+v", kind, i, file[i], code[i])
			}
		}
	}
	sameDefs("end-to-end", bf.EndToEnd, endToEnd)
	sameDefs("per-layer", bf.PerLayer, perLayer)

	var stdout, stderr bytes.Buffer
	out := filepath.Join(t.TempDir(), "result.json")
	code := run([]string{"-scale", "smoke", "-seed", "1", "-seconds", "1", "-trace", "1", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	// Every end-to-end metric is printed for every workload, with its unit.
	text := stdout.String()
	printed := map[string]string{}
	var last string
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if line != "" {
			last = line
		}
		f := strings.Fields(line)
		if len(f) == 4 && slices.Contains(workloadNames, f[0]) {
			printed[f[0]+" "+f[1]] = f[3]
		}
	}
	for _, w := range workloadNames {
		for _, m := range endToEnd {
			if unit, ok := printed[w+" "+m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s %s printed with unit %q (present %t), want %q", w, m.Name, unit, ok, m.Unit)
			}
		}
	}
	if len(printed) != len(workloadNames)*len(endToEnd) {
		t.Errorf("%d workload metric lines printed, want %d", len(printed), len(workloadNames)*len(endToEnd))
	}

	// The result line carries every per-layer metric of every workload.
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, last)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result correct %t, %d attempted, %d failed", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(workloadNames)*len(perLayer) {
		t.Errorf("%d metrics in the result line, want %d", len(res.Metrics), len(workloadNames)*len(perLayer))
	}
	for _, w := range workloadNames {
		for _, m := range perLayer {
			if got, ok := res.Metrics[w+"/"+m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("result line %s/%s: %+v (present %t), want unit %q", w, m.Name, got, ok, m.Unit)
			}
		}
	}
	for _, want := range []string{"layer table corpus-cold", "layer table corpus-warm", "layer table serve-ingest", "layer table serve-read"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q", want)
		}
	}

	// Every output check of every workload passed.
	var report struct {
		Results []struct {
			Workload string
			Checks   []check
			Detail   struct {
				WorkerPIDs []int `json:"worker_pids"`
			}
		}
	}
	data, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != len(workloadNames) {
		t.Errorf("%d workloads in the report, want %d", len(report.Results), len(workloadNames))
	}
	// corpus-cold and corpus-warm, run together, never share a worker: a
	// worker's peak RSS covers its whole life, and warm hits pin mappings.
	workerOf := map[int]string{}
	for _, r := range report.Results {
		if len(r.Checks) == 0 {
			t.Errorf("%s: no output checks ran", r.Workload)
		}
		for _, c := range r.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", r.Workload, c.Name, c.Detail)
			}
		}
		if strings.HasPrefix(r.Workload, "corpus-") && len(r.Detail.WorkerPIDs) == 0 {
			t.Errorf("%s: no worker recorded", r.Workload)
		}
		for _, pid := range r.Detail.WorkerPIDs {
			if w, ok := workerOf[pid]; ok && w != r.Workload {
				t.Errorf("worker %d ran passes of both %s and %s", pid, w, r.Workload)
			}
			workerOf[pid] = r.Workload
		}
	}
}
