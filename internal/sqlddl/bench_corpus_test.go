package sqlddl_test

import (
	"testing"

	"schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
	"schemaevo/internal/synth"
)

// BenchmarkParseUnitsPaperCorpus measures the parse front end the way the
// corpus pipeline drives it: every version of every project's DDL file
// of PaperCorpus(1), in commit order, through a fresh session per
// project under the dialect detected from its first version. Consecutive
// versions share most statements, so the figure weighs the boundary scan
// over every byte against lexing and parsing the statement-cache misses.
func BenchmarkParseUnitsPaperCorpus(b *testing.B) {
	c, err := synth.PaperCorpus(1)
	if err != nil {
		b.Fatal(err)
	}
	type project struct {
		d        sqlddl.Dialect
		versions []string
	}
	var projects []project
	var size int64
	for _, p := range c.Projects {
		var pr project
		for _, fv := range p.Repo.FileHistory(p.Repo.MainDDLPath()) {
			if fv.Deleted {
				continue
			}
			if pr.d == nil {
				pr.d = dialect.Detect(fv.Content)
			}
			pr.versions = append(pr.versions, fv.Content)
			size += int64(len(fv.Content))
		}
		projects = append(projects, pr)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	var units []sqlddl.Unit
	for i := 0; i < b.N; i++ {
		for _, pr := range projects {
			sess := sqlddl.NewSession()
			sess.SetDialect(pr.d)
			for _, v := range pr.versions {
				units = sess.ParseUnits(v, units[:0])
			}
		}
	}
}
