package pipeline

import (
	"fmt"
	"testing"
	"time"

	"schemaevo/internal/vcs"
)

// fingerprintRepo builds an n-commit repo touching every input the
// fingerprint hashes: two DDL files, a non-DDL file, DDL and non-DDL
// deletions, source-line counts and timestamps.
func fingerprintRepo(n int) *vcs.Repo {
	r := &vcs.Repo{Name: "fingerprint"}
	start := time.Date(2018, 3, 1, 9, 30, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		r.Commits = append(r.Commits, vcs.Commit{
			ID:   fmt.Sprintf("c%03d", i),
			Time: start.AddDate(0, 0, 7*i),
			Files: map[string]string{
				"db/schema.sql":  fmt.Sprintf("CREATE TABLE t (a INT, b%d INT);", i),
				"db/views.ddl":   "CREATE TABLE v (x INT);",
				"src/app/main.c": "int main(void) { return 0; }",
			},
			Deleted:  []string{"db/old.sql", "notes.txt", "db/older.sql"},
			SrcLines: 3 * i,
		})
	}
	return r
}

// TestFingerprintPinned pins the cache keys to committed values, so any
// change to the hashed bytes fails here: such a change orphans every
// cache entry already on disk and must come with a fingerprintRevision
// bump (and new values below).
func TestFingerprintPinned(t *testing.T) {
	wp, err := vcs.ReadVersionDir("../../testdata/wordpressish")
	if err != nil {
		t.Fatal(err)
	}
	synthetic := fingerprintRepo(3)
	for _, c := range []struct {
		name, got, want string
	}{
		{"wordpressish", Fingerprint(wp), "2630c2d547b0f4293d088c26cfda5ffb27f3cb5304b94f40c5da079d4409921c"},
		{"wordpressish/mysql", FingerprintDialect(wp, "mysql"), "bf2d067d5f131f6671eddc8e8abcfc793dbdf755d95c8eb3d3b31f9ad0f9fb17"},
		// "generic" is the untagged key; "auto" also hashes
		// dialect.Revision, so a change of detection rules re-keys auto
		// runs (and only them).
		{"wordpressish/generic", FingerprintDialect(wp, "generic"), "2630c2d547b0f4293d088c26cfda5ffb27f3cb5304b94f40c5da079d4409921c"},
		{"wordpressish/auto", FingerprintDialect(wp, "auto"), "01174ee1a004e69b01fb4704ce9086c9eefe27bb7260d8fbc33cf248e9597c8e"},
		{"synthetic", Fingerprint(synthetic), "37741e953fac5a7d7fb286688aa88667528c6fcbc952954fcb68b3c32fdbeee8"},
		{"synthetic/mysql", FingerprintDialect(synthetic, "mysql"), "ffb79bd8c8e73a2acc3781c325af6033b756240900afd7f7cdd1d76a7f8a8465"},
	} {
		if c.got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestAllocBudgetFingerprint pins that fingerprinting allocates a
// constant per call: hashing a snapshot copies nothing and the per-commit
// path lists are reused, so 200 commits cost what one does.
func TestAllocBudgetFingerprint(t *testing.T) {
	one, many := fingerprintRepo(1), fingerprintRepo(200)
	a1 := testing.AllocsPerRun(50, func() { FingerprintDialect(one, "mysql") })
	a200 := testing.AllocsPerRun(50, func() { FingerprintDialect(many, "mysql") })
	if a200 != a1 {
		t.Errorf("FingerprintDialect: %.0f allocs/op for 200 commits, %.0f for 1; want equal", a200, a1)
	}
}
