package vcs_test

// Differential tests for the one-pass wire decoder. encoding/json is the
// specification: for every input, vcs.DecodeJSON must accept or reject
// exactly as json.Unmarshal into a vcs.Repo does, and on accept produce a
// reflect.DeepEqual value. corpus.ReadJSON, built on the same Reader, is
// held to json.Unmarshal of its envelope plus its validation rules.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"schemaevo/internal/core"
	"schemaevo/internal/corpus"
	"schemaevo/internal/synth"
	"schemaevo/internal/vcs"
)

// checkRepo compares DecodeJSON with json.Unmarshal on one input.
func checkRepo(t testing.TB, data []byte) {
	t.Helper()
	var want vcs.Repo
	wantErr := json.Unmarshal(data, &want)
	got, err := vcs.DecodeJSON(data)
	if (wantErr == nil) != (err == nil) {
		t.Fatalf("accept mismatch on %q:\nencoding/json: %v\nDecodeJSON:    %v", clip(data), wantErr, err)
	}
	if err == nil && !reflect.DeepEqual(&want, got) {
		t.Fatalf("value mismatch on %q:\nencoding/json: %#v\nDecodeJSON:    %#v", clip(data), &want, got)
	}
}

// envelope mirrors the corpus file's persisted form for the reflection
// oracle.
type envelope struct {
	Projects []struct {
		Name        string    `json:"name"`
		GroundTruth string    `json:"ground_truth"`
		Dialect     string    `json:"dialect"`
		Repo        *vcs.Repo `json:"repo"`
	} `json:"projects"`
}

// oracleCorpus is corpus.ReadJSON with encoding/json as its decoder.
func oracleCorpus(data []byte) (*corpus.Corpus, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	c := &corpus.Corpus{}
	for i, pp := range env.Projects {
		if pp.Repo == nil {
			return nil, fmt.Errorf("project %d has no repo", i)
		}
		if err := pp.Repo.Validate(); err != nil {
			return nil, err
		}
		prj := &corpus.Project{Name: pp.Name, Dialect: pp.Dialect, Repo: pp.Repo}
		if pp.GroundTruth != "" {
			gt, ok := core.ParsePattern(pp.GroundTruth)
			if !ok {
				return nil, fmt.Errorf("unknown pattern %q", pp.GroundTruth)
			}
			prj.GroundTruth = gt
		}
		c.Projects = append(c.Projects, prj)
	}
	return c, nil
}

// checkCorpus compares corpus.ReadJSON with the reflection oracle.
func checkCorpus(t testing.TB, data []byte) {
	t.Helper()
	want, wantErr := oracleCorpus(data)
	got, err := corpus.ReadJSON(bytes.NewReader(data))
	if (wantErr == nil) != (err == nil) {
		t.Fatalf("corpus accept mismatch on %q:\noracle:          %v\ncorpus.ReadJSON: %v", clip(data), wantErr, err)
	}
	if err == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("corpus value mismatch on %q", clip(data))
	}
}

func clip(b []byte) []byte {
	if len(b) > 300 {
		return append(b[:300:300], "..."...)
	}
	return b
}

const okCommit = `{"id":"c1","time":"2019-01-10T12:00:00Z","src_lines":120,"files":{"db/schema.sql":"CREATE TABLE t (id INT);"}}`

// edgeCases are the inputs the decoder's rules are written against; they
// seed the fuzzer and run as a table test.
var edgeCases = []string{
	// Shapes.
	`{"name":"x","commits":[` + okCommit + `]}`,
	`{}`, `null`, ` {"name":"x"} `, "\t{\n}\r\n", `{"commits":[]}`, `{"commits":null}`,
	// Escapes, surrogates and invalid UTF-8.
	`{"name":"a\"b\\c\/d\be\ff\ng\rh\ti"}`,
	`{"name":"\u00e9\u4e2d\uFFFD\u0000\u001f"}`,
	`{"name":"\ud83d\ude00 pair, \ud800 lone high, \udc00 lone low"}`,
	`{"name":"\ud800\u0041"}`, `{"name":"\ud800\ud800\udc00"}`, `{"name":"\udbff\udfff"}`,
	`{"name":"\ud800"}`, `{"name":"\ud800\"}`, `{"name":"\u12"}`, `{"name":"\uzzzz"}`, `{"name":"\x"}`,
	"{\"name\":\"\xff\xfe raw\"}", "{\"name\":\"\xed\xa0\x80\"}", "{\"name\":\"\xe2\x82\"}",
	"{\"name\":\"caf\xc3\xa9 \xf0\x9f\x98\x80\"}", "{\"name\":\"tab\there\"}", "{\"name\":\"\x7f\"}",
	"{\"na\\u006de\":\"escaped key\"}", "{\"commits\":[{\"files\":{\"\xff\":\"\\ud800\"}}]}",
	// Case-folded keys, including Unicode folds (U+017F folds to s).
	`{"NAME":"x","Commits":[{"ID":"a","TIME":"2020-01-01T00:00:00Z","SRC_LINES":3,"Message":"m","FILES":{"A":"b"},"Deleted":["d"]}]}`,
	`{"commits":[{"meſſage":"long s","fileſ":{"a":"b"},"ſrc_lineſ":2}]}`,
	`{"SrcLines":1,"src-lines":2,"commits":[{"SrcLines":4}]}`,
	// Duplicate keys: scalars last-wins, files merge, slices decode in place.
	`{"name":"a","name":"b","name":null}`,
	`{"commits":[{"id":"a","src_lines":5,"files":{"x":"1"}},{"id":"b"},{"id":"c"}],"commits":[{"id":"z"}],"commits":[{},{}]}`,
	`{"commits":[{"files":{"a":"1","b":"2"},"files":{"b":"3","a":null},"files":{}}]}`,
	`{"commits":[{"deleted":["a","b","c"],"deleted":["x"],"deleted":[null,null]}]}`,
	`{"commits":[{"deleted":["a"],"deleted":[],"deleted":[null]}]}`,
	`{"commits":[{"id":"a"}],"commits":[],"commits":[null]}`,
	`{"commits":[{"time":"2020-01-01T00:00:00Z"}],"commits":[{"time":null}]}`,
	`{"commits":[{"files":{"a":"1"}}],"commits":[{"files":null}]}`,
	// null on every field.
	`{"name":null,"commits":null}`,
	`{"commits":[null,{"id":null,"time":null,"message":null,"files":null,"deleted":null,"src_lines":null}]}`,
	`{"commits":[{"files":{"a":null},"deleted":[null,"x"]}]}`,
	// Numbers.
	`{"commits":[{"src_lines":-0}]}`, `{"commits":[{"src_lines":0}]}`,
	`{"commits":[{"src_lines":1e2}]}`, `{"commits":[{"src_lines":1.0}]}`, `{"commits":[{"src_lines":1.5}]}`,
	`{"commits":[{"src_lines":9223372036854775807}]}`, `{"commits":[{"src_lines":9223372036854775808}]}`,
	`{"commits":[{"src_lines":-9223372036854775808}]}`, `{"commits":[{"src_lines":-9223372036854775809}]}`,
	`{"commits":[{"src_lines":99999999999999999999}]}`, `{"commits":[{"src_lines":01}]}`,
	`{"commits":[{"src_lines":-}]}`, `{"commits":[{"src_lines":+1}]}`, `{"commits":[{"src_lines":"1"}]}`,
	`{"x":-0.0e-0,"y":1E+2,"z":0.5,"w":-12.25e10}`, `{"x":1.}`, `{"x":.5}`, `{"x":1e}`, `{"x":1e+}`, `{"x":-01}`,
	`{"x":1.5.3}`, `{"x":0x10}`, `{"x":NaN}`, `{"x":Infinity}`,
	// Time through time.Time.UnmarshalJSON on the raw literal.
	`{"commits":[{"time":"2020-01-01T00:00:00+02:00"}]}`, `{"commits":[{"time":"2020-01-01T00:00:00.123456789-07:30"}]}`,
	`{"commits":[{"time":"2020-01-01"}]}`, `{"commits":[{"time":1}]}`, `{"commits":[{"time":{}}]}`,
	`{"commits":[{"time":[]}]}`, `{"commits":[{"time":true}]}`, `{"commits":[{"time":"2020-01-01T00:00:00\u005a"}]}`,
	`{"commits":[{"time":"2020-13-01T00:00:00Z"}]}`, `{"commits":[{"time":{"a":[1,{"b":null}]}}]}`,
	// Type mismatches.
	`{"name":1}`, `{"name":true}`, `{"name":{}}`, `{"name":[]}`, `{"commits":{}}`, `{"commits":"x"}`,
	`{"commits":[1]}`, `{"commits":["x"]}`, `{"commits":[[]]}`, `{"commits":[{"files":[]}]}`,
	`{"commits":[{"files":{"a":1}}]}`, `{"commits":[{"files":"x"}]}`, `{"commits":[{"deleted":"x"}]}`,
	`{"commits":[{"deleted":[1]}]}`, `{"commits":[{"id":5}]}`, `[]`, `"repo"`, `1`, `true`,
	// Unknown keys: skipped, but syntax-checked.
	`{"extra":{"a":[1,2,{"b":null,"c":true,"d":false}],"e":"\u00e9"},"name":"x"}`,
	`{"extra":[1,2,}`, `{"extra":{"a" 1}}`, `{"extra":tru}`, `{"extra":nul}`, `{"extra":falsey}`,
	`{"extra":"\q"}`, "{\"extra\":\"a\x01b\"}", `{"extra":[}`, `{"extra":{,}}`, `{"extra":{"a":1,}}`,
	// Syntax.
	``, ` `, `{`, `{"name"`, `{"name":`, `{"name":"x"`, `{"name":"x",}`, `{,}`, `{"a" 1}`, `{"name":"x"]`,
	`{"commits":[}`, `{"commits":[` + okCommit + `,]}`, `{"commits":[` + okCommit + ` ` + okCommit + `]}`,
	`{'name':'x'}`, `{name:"x"}`, "\xef\xbb\xbf{}", "{\"name\":\"unterminated",
	// Trailing data: whitespace only.
	`{} {}`, `{}x`, `{}` + "\n", `{"name":"x"}{"name":"y"}`, `{}]`, `null null`, "{}\x00",
}

// deep returns an object whose unknown field nests n-1 arrays, so the
// document's depth is n.
func deep(n int) string {
	return `{"x":` + strings.Repeat("[", n-1) + strings.Repeat("]", n-1) + `}`
}

func envelopeCase(projects ...string) string {
	return `{"projects":[` + strings.Join(projects, ",") + `]}`
}

// corpusCases exercise the envelope: pointer-valued repo fields, null
// repos, duplicate keys decoding over earlier projects, unknown keys.
var corpusCases = []string{
	envelopeCase(`{"name":"p","ground_truth":"Flatliner","dialect":"mysql","repo":{"name":"p","commits":[` + okCommit + `]}}`),
	envelopeCase(`{"name":"p","repo":{"name":"p","commits":[` + okCommit + `]},"repo":{"name":"q"}}`),
	envelopeCase(`{"name":"p","repo":{"name":"p","commits":[`+okCommit+`]}}`) + `x`,
	`{"projects":[{"name":"a","repo":{"commits":[` + okCommit + `]}}],"projects":[{"name":"b"}]}`,
	`{"PROJECTS":[{"Name":"a","Ground_Truth":"","REPO":{"commits":[` + okCommit + `]}}],"other":[1,{"x":null}]}`,
	envelopeCase(`{"name":"p","repo":null}`), envelopeCase(`{"name":"p"}`), envelopeCase(`null`),
	envelopeCase(`{"name":"p","ground_truth":"NoSuchPattern","repo":{"commits":[` + okCommit + `]}}`),
	`{"projects":null}`, `{}`, `null`, `{"projects":{}}`, `{"projects":[1]}`, `{"projects":[{"repo":[]}]}`,
}

func TestDecodeJSONMatchesReflection(t *testing.T) {
	for _, tc := range edgeCases {
		checkRepo(t, []byte(tc))
		checkCorpus(t, []byte(tc))
	}
	for _, tc := range corpusCases {
		checkCorpus(t, []byte(tc))
		checkRepo(t, []byte(tc))
	}
	for _, n := range []int{9999, 10000, 10001} {
		checkRepo(t, []byte(deep(n)))
	}
	for _, body := range sampleBodies(t, 16) {
		checkRepo(t, body)
	}
	c, err := synth.PaperCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkCorpus(t, buf.Bytes())
}

// TestDecodeJSONDepthBound: a document nested past encoding/json's limit
// is a decode error, not a stack overflow, however deep it goes.
func TestDecodeJSONDepthBound(t *testing.T) {
	for _, body := range []string{deep(10001), `{"x":` + strings.Repeat("[", 1<<20), `{"x":` + strings.Repeat(`{"a":`, 1<<20)} {
		if _, err := vcs.DecodeJSON([]byte(body)); err == nil || !strings.Contains(err.Error(), "exceeded max depth") {
			t.Errorf("depth %d: err = %v, want exceeded max depth", len(body), err)
		}
	}
	if _, err := vcs.DecodeJSON([]byte(deep(10000))); err != nil {
		t.Errorf("depth 10000: %v", err)
	}
}

// TestDecodeJSONStringsDoNotAlias: every decoded string is a fresh copy,
// so overwriting the input (a pooled batch line, a reused body buffer)
// cannot change a decoded repo.
func TestDecodeJSONStringsDoNotAlias(t *testing.T) {
	body := []byte(`{"name":"demo","commits":[{"id":"c1","time":"2020-01-01T00:00:00Z","message":"m","files":{"a.sql":"CREATE TABLE t (x INT);"},"deleted":["b.sql"]}]}`)
	repo, err := vcs.DecodeJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(repo)
	for i := range body {
		body[i] = 'X'
	}
	if got, _ := json.Marshal(repo); !bytes.Equal(got, want) {
		t.Fatalf("decoded repo changed with its input:\n%s\nwant\n%s", got, want)
	}
}

var (
	bodiesOnce sync.Once
	bodies     [][]byte
	bodiesErr  error
)

// sampleBodies returns the first n of 256 synthetic submission bodies
// (synth.RandomCorpus, one repo each, compact JSON as clients send them).
func sampleBodies(tb testing.TB, n int) [][]byte {
	bodiesOnce.Do(func() {
		c, err := synth.RandomCorpus(256, 7920)
		if err != nil {
			bodiesErr = err
			return
		}
		for _, p := range c.Projects {
			b, err := json.Marshal(p.Repo)
			if err != nil {
				bodiesErr = err
				return
			}
			bodies = append(bodies, b)
		}
	})
	if bodiesErr != nil {
		tb.Fatal(bodiesErr)
	}
	return bodies[:n]
}

func FuzzDecodeRepoJSON(f *testing.F) {
	for _, body := range sampleBodies(f, 4) {
		f.Add(body)
	}
	for _, tc := range edgeCases {
		f.Add([]byte(tc))
	}
	for _, tc := range corpusCases {
		f.Add([]byte(tc))
	}
	f.Add([]byte(deep(10001)))
	f.Add([]byte(deep(10000)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRepo(t, data)
		checkCorpus(t, data)
	})
}

// ownedAllocs counts the heap objects a decoded repo owns: itself, every
// non-empty string, two per map (header and first group; no fixture map
// outgrows one group), and the reallocations of slices grown one element
// at a time.
func ownedAllocs(r *vcs.Repo) int {
	n := 1 + nonEmpty(r.Name) + grown(len(r.Commits))
	for _, c := range r.Commits {
		n += nonEmpty(c.ID) + nonEmpty(c.Message) + grown(len(c.Deleted))
		if c.Files != nil {
			n += 2
		}
		for k, v := range c.Files {
			n += nonEmpty(k) + nonEmpty(v)
		}
		for _, d := range c.Deleted {
			n += nonEmpty(d)
		}
	}
	return n
}

func nonEmpty(s string) int {
	if s == "" {
		return 0
	}
	return 1
}

// grown is the allocation count of appending n elements to a nil slice
// under doubling: capacities 1, 2, 4, ... up to n.
func grown(n int) int {
	if n == 0 {
		return 0
	}
	return bits.Len(uint(n-1)) + 1
}

// TestAllocBudgetDecodeRepo pins DecodeJSON's allocations to what the
// decoded value owns plus a small constant: no per-token garbage, no
// intermediate tree, the unescape scratch pooled.
func TestAllocBudgetDecodeRepo(t *testing.T) {
	repo := &vcs.Repo{Name: "alloc-budget"}
	start := time.Date(2019, 1, 10, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 24; i++ {
		c := vcs.Commit{
			ID:       fmt.Sprintf("c%02d", i),
			Time:     start.AddDate(0, i, 0),
			Message:  fmt.Sprintf("migration %d\n\nadds \"t%d\"", i, i),
			SrcLines: 10 * i,
			Files: map[string]string{
				"db/schema.sql": strings.Repeat(fmt.Sprintf("CREATE TABLE t%d (\n\tid INT\n);\n", i), i+1),
				"src/main.go":   "package main // é",
			},
		}
		if i%5 == 4 {
			c.Deleted = []string{"old.sql", "older.sql"}
		}
		repo.Commits = append(repo.Commits, c)
	}
	body, err := json.Marshal(repo)
	if err != nil {
		t.Fatal(err)
	}
	budget := ownedAllocs(repo) + 2
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := vcs.DecodeJSON(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(budget) {
		t.Errorf("DecodeJSON: %.0f allocs/op, budget %d (owned by the value %d + 2)", allocs, budget, budget-2)
	}
	t.Logf("DecodeJSON: %.0f allocs/op, budget %d", allocs, budget)
}

// BenchmarkDecodeJSON reports the decoder against json.Unmarshal on the
// same inputs: 256 synthetic submission bodies (mean ~20 KB, one per op)
// and the 151-project paper corpus file, read from disk and validated as
// corpus.LoadFile does.
func BenchmarkDecodeJSON(b *testing.B) {
	all := sampleBodies(b, 256)
	var size int
	for _, body := range all {
		size += len(body)
	}
	b.Run("bodies/reflect", func(b *testing.B) {
		b.SetBytes(int64(size / len(all)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r vcs.Repo
			if err := json.Unmarshal(all[i%len(all)], &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bodies/onepass", func(b *testing.B) {
		b.SetBytes(int64(size / len(all)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := vcs.DecodeJSON(all[i%len(all)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	c, err := synth.PaperCorpus(1)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "corpus.json")
	if err := c.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("corpus/reflect", func(b *testing.B) {
		b.SetBytes(info.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := oracleCorpus(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("corpus/onepass", func(b *testing.B) {
		b.SetBytes(info.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := corpus.LoadFile(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}
