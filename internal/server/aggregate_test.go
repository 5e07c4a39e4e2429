package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"

	"schemaevo/internal/core"
	"schemaevo/internal/pipeline"
	"schemaevo/internal/store"
)

// member is one analyzed project's contribution to the aggregate
// documents, as the from-scratch oracle sees it.
type member struct {
	id, name string
	pat      core.Pattern
}

// buildCorpusStats is the from-scratch stats oracle: members tallied by
// assigned pattern in the paper's presentation order (patterns with no
// members included, Unclassified only when it has members). projects is
// the total project count including any unanalyzed corpus entries.
func buildCorpusStats(projects int, members []member) corpusStatsWire {
	counts := map[core.Pattern]int{}
	for _, m := range members {
		counts[m.pat]++
	}
	out := corpusStatsWire{
		SchemaVersion: APISchemaVersion,
		Projects:      projects,
		Analyzed:      len(members),
		Patterns:      []patternCountWire{},
	}
	emit := func(pat core.Pattern) {
		out.Patterns = append(out.Patterns, patternCountWire{
			Pattern: pat.String(),
			Family:  core.FamilyOf(pat).String(),
			Count:   counts[pat],
		})
	}
	for _, pat := range core.AllPatterns {
		emit(pat)
	}
	if counts[core.Unclassified] > 0 {
		emit(core.Unclassified)
	}
	return out
}

// buildCorpusPatterns is the from-scratch patterns oracle: members
// grouped by assigned pattern, sorted by name, then ID, within each
// group.
func buildCorpusPatterns(members []member) corpusPatternsWire {
	out := corpusPatternsWire{SchemaVersion: APISchemaVersion, Groups: []patternGroupWire{}}
	grouped := map[core.Pattern][]projectRefWire{}
	for _, m := range members {
		grouped[m.pat] = append(grouped[m.pat], projectRefWire{Name: m.name, ID: m.id})
	}
	emit := func(pat core.Pattern) {
		refs := grouped[pat]
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].Name != refs[j].Name {
				return refs[i].Name < refs[j].Name
			}
			return refs[i].ID < refs[j].ID
		})
		if refs == nil {
			refs = []projectRefWire{}
		}
		out.Groups = append(out.Groups, patternGroupWire{
			Pattern:  pat.String(),
			Family:   core.FamilyOf(pat).String(),
			Count:    len(refs),
			Projects: refs,
		})
	}
	for _, pat := range core.AllPatterns {
		emit(pat)
	}
	if len(grouped[core.Unclassified]) > 0 {
		emit(core.Unclassified)
	}
	return out
}

// corpusMembers derives the analyzed corpus members the way New does,
// independently of the aggregate index.
func corpusMembers(s *Server) []member {
	var out []member
	for _, p := range s.corpus.Projects {
		if p.Analyzed {
			id := projectID(pipeline.FingerprintDialect(p.Repo, s.cfg.Dialect))
			out = append(out, member{id: id, name: p.Name, pat: p.Assigned()})
		}
	}
	return out
}

// TestAggregateDifferential runs a seeded random sequence of joins,
// supersedes within and across patterns, same-ID re-puts, DELETEs
// through the real handler and submissions reusing corpus project names
// against a model of the live membership. After every step both
// documents must equal the from-scratch oracle byte for byte, each must
// render at most once per epoch, and every group whose membership the
// step left unchanged must reuse its cached section.
func TestAggregateDifferential(t *testing.T) {
	s := newAllocServer(t)
	rng := rand.New(rand.NewSource(17))
	base := corpusMembers(s)
	live := map[string]member{} // the model: store-backed members by ID

	put := func(id, name string, pat core.Pattern) {
		t.Helper()
		prev, err := s.store.Put(store.Entry{
			ID: id, Name: name, Fingerprint: "fp-" + id,
			Source: []byte("src " + id), Result: []byte("res " + id),
		})
		if err != nil {
			t.Fatal(err)
		}
		s.aggPut(id, name, pat, prev)
		delete(live, prev)
		live[id] = member{id: id, name: name, pat: pat}
	}
	del := func(id string, want int) {
		t.Helper()
		req := httptest.NewRequest(http.MethodDelete, "/v1/projects/"+id, nil)
		req.SetPathValue("id", id)
		rec := httptest.NewRecorder()
		s.handleDelete(rec, req)
		if rec.Code != want {
			t.Fatalf("DELETE %s: status %d, want %d; body %s", id, rec.Code, want, rec.Body.Bytes())
		}
		delete(live, id)
	}
	pick := func() member {
		ids := make([]string, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return live[ids[rng.Intn(len(ids))]]
	}
	randPat := func() core.Pattern { return docOrder[rng.Intn(len(docOrder))] }
	newID := func() string { return fmt.Sprintf("%016x", rng.Uint64()) }

	oracle := func() ([]byte, []byte, corpusPatternsWire) {
		members := append([]member{}, base...)
		for _, m := range live {
			members = append(members, m)
		}
		stats := buildCorpusStats(s.corpus.Len()+len(live), members)
		pats := buildCorpusPatterns(members)
		return appendCorpusStatsWire(nil, &stats), appendCorpusPatternsWire(nil, &pats), pats
	}
	sections := func() map[string][]byte {
		out := map[string][]byte{}
		for _, pat := range docOrder {
			out[pat.String()] = s.agg.groups[pat].section
		}
		return out
	}

	_, _, prevDoc := oracle()
	s.patternsRendered()
	prevSections := sections()
	for step := 0; step < 600; step++ {
		var what string
		switch r := rng.Intn(100); {
		case r < 35 || len(live) == 0:
			what = "join"
			put(newID(), fmt.Sprintf("proj-%08x", rng.Uint32()), randPat())
		case r < 50:
			what = "supersede within a pattern"
			m := pick()
			put(newID(), m.name, m.pat)
		case r < 65:
			what = "supersede across patterns"
			m := pick()
			pat := randPat()
			for pat == m.pat {
				pat = randPat()
			}
			put(newID(), m.name, pat)
		case r < 75:
			what = "same-ID re-put"
			m := pick()
			put(m.id, m.name, randPat())
		case r < 88:
			what = "delete"
			del(pick().id, http.StatusOK)
		case r < 90:
			what = "delete a corpus project"
			del(base[rng.Intn(len(base))].id, http.StatusForbidden)
		default:
			what = "reuse a corpus name"
			put(newID(), base[rng.Intn(len(base))].name, randPat())
		}
		label := fmt.Sprintf("step %d (%s)", step, what)

		wantStats, wantPats, doc := oracle()
		if got := s.statsRendered(); string(got.body) != string(wantStats) {
			t.Fatalf("%s: stats drifted from the oracle\n--- got ---\n%s\n--- want ---\n%s", label, got.body, wantStats)
		}
		got := s.patternsRendered()
		if string(got.body) != string(wantPats) {
			t.Fatalf("%s: patterns drifted from the oracle\n--- got ---\n%s\n--- want ---\n%s", label, got.body, wantPats)
		}
		if again := s.patternsRendered(); &again.body[0] != &got.body[0] {
			t.Fatalf("%s: unchanged epoch re-rendered the patterns document", label)
		}
		if a, b := s.statsRendered(), s.statsRendered(); &a.body[0] != &b.body[0] {
			t.Fatalf("%s: unchanged epoch re-rendered the stats document", label)
		}

		cur := sections()
		for i, g := range doc.Groups {
			if i >= len(prevDoc.Groups) || prevDoc.Groups[i].Pattern != g.Pattern || !slices.Equal(prevDoc.Groups[i].Projects, g.Projects) {
				continue
			}
			before, after := prevSections[g.Pattern], cur[g.Pattern]
			if before != nil && &before[0] != &after[0] {
				t.Fatalf("%s: untouched group %s re-rendered its section", label, g.Pattern)
			}
		}
		prevDoc, prevSections = doc, cur
	}
	if len(live) < 50 {
		t.Fatalf("the sequence left %d live members; it no longer builds up large groups", len(live))
	}
}

// TestPatternsOrderIndependent feeds one membership in 200 shuffled
// orders, through the oracle, the bulk load and one-by-one joins. Its
// largest group has 201 members, past the size below which an unstable
// sort happens to keep input order, and two of them share a name (a
// submission reusing a corpus project's name); the other groups' names
// need escaping. Every order must render the same bytes.
func TestPatternsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var members []member
	for i := 0; i < 200; i++ {
		members = append(members, member{id: fmt.Sprintf("%016x", rng.Uint64()), name: fmt.Sprintf("p%03d", rng.Intn(1000)), pat: core.Sigmoid})
	}
	members = append(members, member{id: fmt.Sprintf("%016x", rng.Uint64()), name: members[0].name, pat: core.Sigmoid})
	for i := 0; i < 30; i++ {
		members = append(members, member{id: fmt.Sprintf("%016x", rng.Uint64()), name: fmt.Sprintf("q<%02d>&\u2028", i), pat: docOrder[i%len(docOrder)]})
	}

	ref := buildCorpusPatterns(members)
	want := appendCorpusPatternsWire(nil, &ref)
	for round := 0; round < 200; round++ {
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })

		doc := buildCorpusPatterns(members)
		if got := appendCorpusPatternsWire(nil, &doc); string(got) != string(want) {
			t.Fatalf("round %d: the oracle's rendering depends on input order", round)
		}
		bulk := newPatternIndex()
		for i, m := range members {
			bulk.load(m.id, m.name, m.pat, i%2 == 0)
		}
		bulk.sortGroups()
		if got := bulk.patternsDoc(); string(got.body) != string(want) {
			t.Fatalf("round %d: the bulk-loaded index depends on load order\n--- got ---\n%s\n--- want ---\n%s", round, got.body, want)
		}
		incr := newPatternIndex()
		for _, m := range members {
			incr.join(m.id, m.name, m.pat)
		}
		if got := incr.patternsDoc(); string(got.body) != string(want) {
			t.Fatalf("round %d: the joined index depends on join order\n--- got ---\n%s\n--- want ---\n%s", round, got.body, want)
		}
	}
}

// BenchmarkPatternsAfterWrite is the patterns document's cost after one
// write: 4,096 stored members, then per iteration one commit superseding
// a stored member with a new version under another pattern, and one
// patterns render.
func BenchmarkPatternsAfterWrite(b *testing.B) {
	s, err := New(context.Background(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const stored = 4096
	rng := rand.New(rand.NewSource(1))
	pats := core.AllPatterns
	put := func(id, name string, pat core.Pattern) {
		prev, err := s.store.Put(store.Entry{ID: id, Name: name, Fingerprint: id, Source: []byte(id), Result: []byte(id)})
		if err != nil {
			b.Fatal(err)
		}
		s.aggPut(id, name, pat, prev)
	}
	names := make([]string, stored)
	for i := range names {
		names[i] = fmt.Sprintf("bench-%08x", rng.Uint32())
		put(fmt.Sprintf("%016x", rng.Uint64()), names[i], pats[i%len(pats)])
	}
	s.patternsRendered()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id, name := fmt.Sprintf("%016x", rng.Uint64()), names[i%stored]
		prev, err := s.store.Put(store.Entry{ID: id, Name: name, Fingerprint: id, Source: []byte(id), Result: []byte(id)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s.aggPut(id, name, pats[i%len(pats)], prev)
		s.patternsRendered()
	}
}
