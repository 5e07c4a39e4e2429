package schema_test

// Differential harness: the neutral corpus goldens were generated with
// the pre-refactor mixed-dialect parser. Every adapter (and the generic
// union grammar) must render byte-identical per-version schemas and
// identical diff sequences, proving the dialect split is
// behavior-preserving on dialect-neutral input.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schemaevo/internal/diff"
	"schemaevo/internal/schema"
	core "schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
)

const neutralDir = "../../testdata/dialects/neutral"

// renderHistory renders one neutral corpus file (versions separated by
// "-- @version" lines) parsed under d into the canonical golden format.
// It must stay byte-compatible with the format the pre-refactor generator
// used; the goldens are the contract.
func renderHistory(d core.Dialect, src string) string {
	versions := strings.Split(src, "-- @version\n")
	var sb strings.Builder
	var prev *schema.Schema
	for i, vsrc := range versions {
		script := core.ParseWith(d, vsrc)
		s, notes := schema.FromScript(script)
		fmt.Fprintf(&sb, "== v%d (stmts=%d errors=%d notes=%d)\n", i+1, len(script.Statements), len(script.Errors), len(notes))
		sb.WriteString(s.Emit())
		delta := diff.Schemas(prev, s)
		fmt.Fprintf(&sb, "-- delta v%d->v%d: +tables=%v -tables=%v expansion=%d maintenance=%d\n",
			i, i+1, delta.TablesAdded, delta.TablesDropped, delta.Expansion(), delta.Maintenance())
		for _, c := range delta.Changes {
			fmt.Fprintf(&sb, "   %s\n", c)
		}
		prev = s
	}
	return sb.String()
}

func TestDifferentialNeutralCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(neutralDir, "*.sql"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no neutral corpus files: %v", err)
	}
	dialects := append([]core.Dialect{core.Generic}, dialect.All()...)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		base := strings.TrimSuffix(filepath.Base(f), ".sql")
		golden, err := os.ReadFile(filepath.Join(neutralDir, "golden", base+".golden"))
		if err != nil {
			t.Fatalf("missing golden for %s: %v (goldens are generated from the pre-refactor parser and committed; they are not regenerated)", base, err)
		}
		for _, d := range dialects {
			got := renderHistory(d, string(src))
			if got != string(golden) {
				t.Errorf("%s under %s diverges from pre-refactor golden:\n%s", base, d.Name(), firstDiff(got, string(golden)))
			}
		}
	}
}

func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("length mismatch: got %d lines, want %d", len(gl), len(wl))
}
