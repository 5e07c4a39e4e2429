package dialect_test

import (
	"os"
	"path/filepath"
	"testing"

	core "schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
)

// TestDifferentialAutoDetect pins that auto-detection on the neutral
// corpus (whose goldens internal/schema's TestDifferentialNeutralCorpus
// checks under every dialect) resolves to Generic — no dialect-specific
// evidence means no dialect — so detected parsing of neutral corpora is
// also byte-identical.
func TestDifferentialAutoDetect(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corporaDir, "neutral", "*.sql"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no neutral corpus files: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if id := dialect.DetectID(string(src)); id != core.DialectGeneric {
			t.Errorf("%s: neutral corpus detected as %s (scores %+v)", filepath.Base(f), id, dialect.Score(string(src)))
		}
	}
}
