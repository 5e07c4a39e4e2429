package dialect_test

import (
	"testing"

	core "schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
	"schemaevo/internal/synth"
)

// detected keeps the benchmarked calls from being optimized away.
var detected core.DialectID

// BenchmarkDetect measures detection the way the auto-dialect pipeline
// pays for it, once per project: over the first surviving snapshot of
// every project of PaperCorpusDialect(1, name), one sub-benchmark per
// restyled corpus, reported in MB/s.
func BenchmarkDetect(b *testing.B) {
	for _, name := range []string{"generic", "mysql", "postgres", "sqlite"} {
		c, err := synth.PaperCorpusDialect(1, name)
		if err != nil {
			b.Fatal(err)
		}
		var firsts []string
		var size int64
		for _, p := range c.Projects {
			for _, fv := range p.Repo.FileHistory(p.Repo.MainDDLPath()) {
				if !fv.Deleted {
					firsts = append(firsts, fv.Content)
					size += int64(len(fv.Content))
					break
				}
			}
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range firsts {
					detected = dialect.DetectID(src)
				}
			}
		})
	}
}
