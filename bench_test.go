// Benchmarks regenerating every table and figure of the paper from the
// calibrated corpus. Each bench runs the experiment that produces the
// corresponding artifact; BenchmarkEndToEndPipeline times the whole study
// from raw DDL to classified patterns. Run with:
//
//	go test -bench=. -benchmem
package schemaevo

import (
	"context"
	"sync"
	"testing"

	"schemaevo/internal/experiments"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
	benchErr  error
)

// benchContext builds the analyzed corpus once; experiment benches time
// only the artifact computation, while BenchmarkEndToEndPipeline times
// corpus analysis itself.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() { benchCtx, benchErr = experiments.NewPaperContext(1) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCtx
}

func BenchmarkTable1Quantization(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(ctx)
		if res.N != 151 {
			b.Fatalf("N = %d", res.N)
		}
	}
}

func BenchmarkTable2Exceptions(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(ctx)
		if res.TotalExceptions() == 0 {
			b.Fatal("no exceptions found")
		}
	}
}

func BenchmarkFigure1Nomenclature(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Figure1(ctx)
		if res.Chart == "" {
			b.Fatal("empty chart")
		}
	}
}

func BenchmarkFigure2Spearman(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Matrix.R) == 0 {
			b.Fatal("empty matrix")
		}
	}
}

func BenchmarkFigure3Exemplars(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Figure3(ctx)
		if len(res.Charts) != 8 {
			b.Fatalf("charts = %d", len(res.Charts))
		}
	}
}

func BenchmarkFigure4Overview(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Figure4(ctx)
		if len(res.Profiles) != 8 {
			b.Fatalf("profiles = %d", len(res.Profiles))
		}
	}
}

func BenchmarkFigure5DecisionTree(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.N != 151 {
			b.Fatal("bad sample count")
		}
	}
}

func BenchmarkFigure6DomainCoverage(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Figure6(ctx)
		if len(res.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFigure7BirthPrediction(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.Estimator.N() != 151 {
			b.Fatal("bad estimator")
		}
	}
}

func BenchmarkSection34Stats(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Section34(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.N != 151 {
			b.Fatal("bad N")
		}
	}
}

func BenchmarkSection52Cohesion(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Section52(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection61Activity(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Section61(ctx)
		if len(res.Medians) == 0 {
			b.Fatal("no medians")
		}
	}
}

func BenchmarkSection62Rigidity(b *testing.B) {
	ctx := benchContext(b)
	f7, err := experiments.Figure7(ctx)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Section62(f7)
		if len(res.SharpFocused) == 0 {
			b.Fatal("no probabilities")
		}
	}
}

func BenchmarkSection63Mixture(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Section63(ctx)
		if len(res.FamilyShare) == 0 {
			b.Fatal("no shares")
		}
	}
}

func BenchmarkAblationLabelSensitivity(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.LabelSensitivity(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Perturbations) == 0 {
			b.Fatal("no perturbations")
		}
	}
}

func BenchmarkAblationUnsupervised(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Unsupervised(ctx, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndPipeline times the whole study: corpus generation from
// per-pattern profiles, DDL realization, parsing, diffing, heartbeats,
// measures, labels and classification for all 151 projects.
func BenchmarkEndToEndPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, err := experiments.NewPaperContext(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if ctx.Corpus.Len() != 151 {
			b.Fatalf("corpus = %d", ctx.Corpus.Len())
		}
	}
}

// BenchmarkAnalyzeSingleProject times the public-API analysis of one
// realistic repository.
func BenchmarkAnalyzeSingleProject(b *testing.B) {
	c, err := GenerateRandomCorpus(1, 42)
	if err != nil {
		b.Fatal(err)
	}
	repo := c.Projects[0].Repo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeRepo(repo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionCoEvolution(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CoEvolution(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionQueryImpact(b *testing.B) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Impact(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleRandomCorpus measures pipeline throughput on a larger
// random corpus (projects/second at 500 projects).
func BenchmarkScaleRandomCorpus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := GenerateRandomCorpus(500, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if err := AnalyzeCorpus(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialAnalysis is the baseline for BenchmarkPipelineAnalysis.
func BenchmarkSequentialAnalysis(b *testing.B) {
	c, err := GeneratePaperCorpus(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := AnalyzeCorpus(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineAnalysis times the sharded pipeline without a cache on
// the calibrated corpus.
func BenchmarkPipelineAnalysis(b *testing.B) {
	c, err := GeneratePaperCorpus(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeCorpusPipeline(context.Background(), c, PipelineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineWarmCache times the pipeline with a fully warm
// content-hash cache: every project short-circuits parse, history assembly
// and metric computation.
func BenchmarkPipelineWarmCache(b *testing.B) {
	c, err := GeneratePaperCorpus(1)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if _, err := AnalyzeCorpusPipeline(context.Background(), c, PipelineOptions{CacheDir: dir}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := AnalyzeCorpusPipeline(context.Background(), c, PipelineOptions{CacheDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if stats.CacheHits != c.Len() {
			b.Fatalf("cache hits = %d, want %d", stats.CacheHits, c.Len())
		}
	}
}
