package history_test

// Property tests pinning the incremental reconstructor to the full
// per-version rebuild: for every version of every history — synthetic
// corpora in both schema-file styles, plus hand-built adversarial
// histories — schema.Reconstructor must produce schemas and notes
// indistinguishable from running schema.ParseAndBuild on each snapshot
// from scratch. This is the correctness contract the allocation work of
// the hot path rests on.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"schemaevo/internal/history"
	"schemaevo/internal/schema"
	"schemaevo/internal/sqlddl"
	"schemaevo/internal/synth"
	"schemaevo/internal/vcs"
)

// fullRebuild is the reference implementation: every snapshot parsed and
// applied from an empty schema, no sharing, no caches.
func fullRebuild(r *vcs.Repo, path string) []history.ParsedVersion {
	var out []history.ParsedVersion
	for _, fv := range r.FileHistory(path) {
		pv := history.ParsedVersion{Time: fv.Time}
		if fv.Deleted {
			pv.Schema = schema.New()
		} else {
			pv.Schema, pv.Notes = schema.ParseAndBuild(fv.Content)
		}
		out = append(out, pv)
	}
	return out
}

// requireSameVersions compares incremental output against the reference,
// version by version. Reference schemas are sealed first: published
// incremental snapshots are always sealed, and reflect.DeepEqual sees the
// sharing flag.
func requireSameVersions(t *testing.T, label string, got, want []history.ParsedVersion) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d versions incremental vs %d full", label, len(got), len(want))
	}
	for i := range want {
		want[i].Schema.Seal()
		if !got[i].Time.Equal(want[i].Time) {
			t.Fatalf("%s v%d: time %v vs %v", label, i, got[i].Time, want[i].Time)
		}
		if !reflect.DeepEqual(got[i].Notes, want[i].Notes) {
			t.Fatalf("%s v%d: notes diverge\nincremental: %#v\nfull:        %#v",
				label, i, got[i].Notes, want[i].Notes)
		}
		if !reflect.DeepEqual(got[i].Schema, want[i].Schema) {
			t.Fatalf("%s v%d: schemas diverge\nincremental: %s\nfull:        %s",
				label, i, got[i].Schema, want[i].Schema)
		}
	}
}

func checkRepo(t *testing.T, label string, r *vcs.Repo) {
	t.Helper()
	path := r.MainDDLPath()
	if path == "" {
		t.Fatalf("%s: no DDL path", label)
	}
	got, err := history.ParseVersions(r, path)
	if err != nil {
		t.Fatalf("%s: ParseVersions: %v", label, err)
	}
	requireSameVersions(t, label, got, fullRebuild(r, path))
}

func TestReconstructorMatchesFullRebuild(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c, err := synth.RandomCorpus(8, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range c.Projects {
			checkRepo(t, fmt.Sprintf("seed%d/%s", seed, p.Name), p.Repo)
		}
	}
}

// Both schema-file styles must agree with the reference: full dumps churn
// the statement prefix, migration scripts extend it — the two extremes of
// the incremental path.
func TestReconstructorMatchesFullRebuildBothStyles(t *testing.T) {
	start := time.Date(2014, 5, 1, 9, 0, 0, 0, time.UTC)
	sched := &synth.Schedule{
		PUP:      30,
		Monthly:  []int{12, 0, 6, 3, 0, 0, 9, 0, 4, 0, 0, 7, 0, 0, 0, 5, 0, 0, 2, 0, 0, 0, 8, 0, 0, 3, 0, 0, 0, 6},
		ExpShare: 0.6,
	}
	for style, name := range map[synth.Style]string{
		synth.FullDump:        "full-dump",
		synth.MigrationScript: "migration-script",
	} {
		repo, err := synth.RealizeStyled(sched, name, start, rand.New(rand.NewSource(77)), style)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRepo(t, name, repo)
	}
}

// Adversarial shapes the synthesizer never emits: deletions breaking the
// incremental chain, parse errors mid-script, prefix edits, rename
// collisions, and statements that shrink rather than extend the script.
func TestReconstructorMatchesFullRebuildAdversarial(t *testing.T) {
	at := func(d int) time.Time { return time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, d) }
	repoOf := func(contents ...string) *vcs.Repo {
		r := &vcs.Repo{Name: "adv"}
		for i, content := range contents {
			c := vcs.Commit{ID: fmt.Sprintf("c%d", i), Time: at(i)}
			if content == "<deleted>" {
				c.Deleted = []string{"schema.sql"}
			} else {
				c.Files = map[string]string{"schema.sql": content}
			}
			r.Commits = append(r.Commits, c)
		}
		return r
	}

	cases := map[string]*vcs.Repo{
		"delete-then-recreate": repoOf(
			"CREATE TABLE a (id int primary key, name text);",
			"CREATE TABLE a (id int primary key, name text);\nALTER TABLE a ADD COLUMN x int;",
			"<deleted>",
			"CREATE TABLE a (id int primary key);",
		),
		"parse-error-suffix": repoOf(
			"CREATE TABLE a (id int);",
			"CREATE TABLE a (id int);\nCREATE TABLE ((((;",
			"CREATE TABLE a (id int);\nCREATE TABLE ((((;\nCREATE TABLE b (y int);",
		),
		"prefix-edit": repoOf(
			"CREATE TABLE a (id int);\nCREATE TABLE b (x int);",
			"CREATE TABLE a (id bigint);\nCREATE TABLE b (x int);",
		),
		"shrinking-script": repoOf(
			"CREATE TABLE a (id int);\nCREATE TABLE b (x int);\nCREATE TABLE c (y int);",
			"CREATE TABLE a (id int);",
			"CREATE TABLE a (id int);\nCREATE TABLE b (x int);",
		),
		"duplicate-create": repoOf(
			"CREATE TABLE a (id int);",
			"CREATE TABLE a (id int);\nCREATE TABLE a (id int, z text);",
			"CREATE TABLE a (id int);\nCREATE TABLE a (id int, z text);\nCREATE TABLE IF NOT EXISTS a (w int);",
		),
		"rename-collision": repoOf(
			"CREATE TABLE a (id int);\nCREATE TABLE b (x int);",
			"CREATE TABLE a (id int);\nCREATE TABLE b (x int);\nALTER TABLE a RENAME TO b;",
			"CREATE TABLE a (id int);\nCREATE TABLE b (x int);\nALTER TABLE a RENAME TO b;\nALTER TABLE b ADD COLUMN q int;",
		),
		"alter-missing-table": repoOf(
			"ALTER TABLE ghost ADD COLUMN x int;",
			"ALTER TABLE ghost ADD COLUMN x int;\nCREATE TABLE ghost (id int);",
		),
		// Versions without tables: the COW clone of an empty schema, and
		// a rebuild whose statements create none, must stay equal to a
		// fresh empty schema (a nil order, not an empty one).
		"no-tables": repoOf(
			"-- nothing yet",
			"-- nothing yet\n-- still nothing",
			"DROP TABLE IF EXISTS a;",
			"DROP TABLE IF EXISTS a;\nCREATE TABLE a (id int);\nDROP TABLE a;",
		),
		"whitespace-and-comments": repoOf(
			"-- lead comment\nCREATE TABLE a (id int);",
			"-- lead comment\nCREATE TABLE a (id int);\n\n-- trailing note\n",
			"-- changed comment\nCREATE TABLE a (id int);\n\n-- trailing note\n",
		),
	}
	for name, repo := range cases {
		t.Run(name, func(t *testing.T) { checkRepo(t, name, repo) })
	}
}

// A reconstructor reused across projects (the pipeline's per-worker
// pattern) must not leak one project's caches into the next.
func TestReconstructorReuseAcrossProjects(t *testing.T) {
	rc := schema.AcquireReconstructor()
	defer schema.ReleaseReconstructor(rc)

	c, err := synth.RandomCorpus(6, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Projects {
		path := p.Repo.MainDDLPath()
		got, err := history.ParseVersionsIn(rc, p.Repo, path, sqlddl.Generic)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		requireSameVersions(t, p.Name, got, fullRebuild(p.Repo, path))
	}
}
