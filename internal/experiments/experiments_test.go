package experiments

import (
	"strings"
	"sync"
	"testing"

	"schemaevo/internal/core"
	"schemaevo/internal/predict"
)

var (
	ctxOnce sync.Once
	ctxVal  *Context
	ctxErr  error
)

// paperCtx builds the calibrated context once per test binary.
func paperCtx(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() { ctxVal, ctxErr = NewPaperContext(1) })
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	return ctxVal
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	res := Table1(paperCtx(t))
	if res.N != 151 {
		t.Fatalf("N = %d", res.N)
	}
	for _, row := range res.Rows {
		sum := 0
		for _, c := range row.Counts {
			sum += c
		}
		if sum != 151 {
			t.Errorf("%s: counts sum to %d: %v", row.Metric, sum, row.Counts)
		}
	}
	// Birth timing row: paper reports 52 at V_p^0 and 105 at V_p^0+early.
	var birth Table1Row
	for _, row := range res.Rows {
		if strings.Contains(row.Metric, "Point of Birth") {
			birth = row
		}
	}
	if birth.Counts[0] != 52 {
		t.Errorf("births at V_p^0 = %d, paper 52", birth.Counts[0])
	}
	if got := birth.Counts[0] + birth.Counts[1]; got < 95 || got > 115 {
		t.Errorf("births in first quarter = %d, paper 105", got)
	}
	// The render must mention every metric.
	out := res.Render()
	if !strings.Contains(out, "Volume of Birth") || !strings.Contains(out, "Active months") {
		t.Error("render incomplete")
	}
}

func TestTable2MatchesPaperExceptions(t *testing.T) {
	res := Table2(paperCtx(t))
	if res.TotalExceptions() != 8 {
		t.Errorf("total exceptions = %d, want 8 (Table 2)", res.TotalExceptions())
	}
	byPattern := map[core.Pattern]core.ExceptionReport{}
	for _, r := range res.Reports {
		byPattern[r.Pattern] = r
	}
	if n := byPattern[core.Flatliner].Projects; n != 23 {
		t.Errorf("flatliners = %d", n)
	}
	if n := len(byPattern[core.Siesta].Exceptions); n != 3 {
		t.Errorf("siesta exceptions = %d", n)
	}
	if !strings.Contains(res.Render(), "Radical Sign") {
		t.Error("render incomplete")
	}
}

func TestFigure1(t *testing.T) {
	res := Figure1(paperCtx(t))
	if res.Project == "" || !strings.Contains(res.Chart, "100%|") {
		t.Errorf("figure 1: %+v", res.Project)
	}
	if !strings.HasPrefix(res.SVG, "<svg") {
		t.Error("missing SVG")
	}
	if res.TopBandPct <= res.BirthPct {
		t.Errorf("RC exemplar should have a growth interval: birth %f top %f",
			res.BirthPct, res.TopBandPct)
	}
}

func TestFigure2CorrelationSigns(t *testing.T) {
	res, err := Figure2(paperCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline correlations (Fig. 2):
	// TopBandPoint strongly anti-correlated with the tail interval.
	if r := res.R("TopBandPoint_pctPUP", "IntervalTopToEnd_pctPUP"); r > -0.9 {
		t.Errorf("top-band vs tail rho = %.2f, paper ~ -1", r)
	}
	// Birth volume positively related to... inverse of the growth
	// interval: higher birth volume → shorter interval (negative rho).
	if r := res.R("BirthVolume_pctTotal", "IntervalBirthToTop_pctPUP"); r > -0.3 {
		t.Errorf("birth volume vs growth interval rho = %.2f, expected clearly negative", r)
	}
	// Active growth months positively correlated with the growth interval.
	if r := res.R("ActiveGrowthMonths", "IntervalBirthToTop_pctPUP"); r < 0.5 {
		t.Errorf("active months vs interval rho = %.2f, expected strongly positive", r)
	}
	// Birth point pushes top-band attainment later (paper: 0.61).
	if r := res.R("BirthPoint_pctPUP", "TopBandPoint_pctPUP"); r < 0.3 {
		t.Errorf("birth vs top band rho = %.2f, paper 0.61", r)
	}
	// ActiveGrowthMonths tightly related to its normalizations.
	if r := res.R("ActiveGrowthMonths", "ActiveGrowth_pctPUP"); r < 0.8 {
		t.Errorf("active months vs %%PUP rho = %.2f, paper: very tight", r)
	}
	if !strings.Contains(res.Render(), "Strong pairs") {
		t.Error("render incomplete")
	}
}

func TestFigure3HasAllPatterns(t *testing.T) {
	res := Figure3(paperCtx(t))
	for _, p := range core.AllPatterns {
		if _, ok := res.Charts[p]; !ok {
			t.Errorf("no exemplar chart for %v", p)
		}
	}
	out := res.Render()
	for _, p := range core.AllPatterns {
		if !strings.Contains(out, p.String()) {
			t.Errorf("render lacks %v", p)
		}
	}
}

func TestFigure4Profiles(t *testing.T) {
	res := Figure4(paperCtx(t))
	counts := map[core.Pattern]int{}
	for _, pr := range res.Profiles {
		counts[pr.Pattern] = pr.Count
	}
	if counts[core.Flatliner] != 23 || counts[core.RadicalSign] != 41 {
		t.Errorf("profile counts: %v", counts)
	}
	// Flatliners: all born vp0, all vaulted.
	for _, pr := range res.Profiles {
		if pr.Pattern == core.Flatliner {
			if pr.BirthTiming["vp0"] != 23 || pr.Vault["true"] != 23 {
				t.Errorf("flatliner profile: %v %v", pr.BirthTiming, pr.Vault)
			}
			if pr.ActiveMonthsMax != 0 {
				t.Errorf("flatliner active months max = %d", pr.ActiveMonthsMax)
			}
		}
		if pr.Pattern == core.RegularlyCurated && pr.ActiveMonthsMin <= 3 {
			t.Errorf("regularly curated min active months = %d, want > 3", pr.ActiveMonthsMin)
		}
	}
	if !strings.Contains(res.Render(), "Smoking Funnel") {
		t.Error("render incomplete")
	}
}

func TestFigure5FewMisclassified(t *testing.T) {
	res, err := Figure5(paperCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 151 {
		t.Fatalf("N = %d", res.N)
	}
	// Paper: 4 of 151 misclassified. Our corpus has 8 definitional
	// exceptions; allow the same order of magnitude.
	if len(res.Misclassified) > 10 {
		t.Errorf("misclassified = %d, paper reports 4/151", len(res.Misclassified))
	}
	if res.Tree.Depth() < 2 {
		t.Errorf("tree depth = %d, expected a real tree", res.Tree.Depth())
	}
	if !strings.Contains(res.Render(), "misclassified") {
		t.Error("render incomplete")
	}
}

// TestFigure5TreeIsDeterministic fits the Fig. 5 tree to one labelled
// corpus again and again and requires one tree. Seed 3's corpus has a
// node where two features split with Gini gains that tie up to float
// rounding, so a gain summed in map order picked either at random.
func TestFigure5TreeIsDeterministic(t *testing.T) {
	ctx, err := NewPaperContext(3)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for i := 0; i < 30; i++ {
		res, err := Figure5(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Render()
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("fit %d printed another tree:\n%s\nthan the first:\n%s", i, got, want)
		}
	}
}

func TestFigure6EssentialDisjointness(t *testing.T) {
	res := Figure6(paperCtx(t))
	if len(res.Points) < 10 {
		t.Errorf("only %d populated domain points", len(res.Points))
	}
	// The paper reports near-complete disjointness with a few shared
	// areas, all induced by the exception projects (e.g. Siesta members
	// sitting in Regularly Curated territory).
	if len(res.Shared) > 6 {
		t.Errorf("%d domain points shared by multiple patterns", len(res.Shared))
	}
	for _, pt := range res.Shared {
		// Every shared point must involve at most one "intruding"
		// project group beside the majority pattern.
		if len(pt.Patterns) > 2 {
			t.Errorf("domain point %s shared by %d patterns", pt.Key(), len(pt.Patterns))
		}
	}
	total := 0
	for _, pt := range res.Points {
		total += pt.Total
	}
	if total != 151 {
		t.Errorf("domain points cover %d projects", total)
	}
}

func TestFigure7Probabilities(t *testing.T) {
	res, err := Figure7(paperCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	e := res.Estimator
	if e.N() != 151 {
		t.Fatalf("N = %d", e.N())
	}
	// Fig. 7 margins: 52 born M0; 38 in M1..6; 13 in M7..12; 48 later.
	wantTotals := map[predict.Bucket]int{
		predict.BornM0: 52, predict.BornM1to6: 38,
		predict.BornM7to12: 13, predict.BornAfterM12: 48,
	}
	for b, want := range wantTotals {
		if got := e.BucketTotal(b); got != want {
			t.Errorf("bucket %v total = %d, want %d", b, got, want)
		}
	}
	// Flatliners are 44% of M0 births in the paper.
	if p := e.Prob(predict.BornM0, core.Flatliner); p < 0.40 || p > 0.48 {
		t.Errorf("P(flatliner|M0) = %.2f, paper 44%%", p)
	}
	if !strings.Contains(res.Render(), "born M0") {
		t.Error("render incomplete")
	}
}

func TestSection34Stats(t *testing.T) {
	res, err := Section34(paperCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: half born in first 10% of time; generous tolerance.
	if res.BornFirst10Pct < 60 || res.BornFirst10Pct > 95 {
		t.Errorf("born in first 10%% = %d, paper 74", res.BornFirst10Pct)
	}
	if res.ZeroActiveGrowth < 85 || res.ZeroActiveGrowth > 110 {
		t.Errorf("zero active growth = %d, paper 98", res.ZeroActiveGrowth)
	}
	if res.AtMostOneActiveGrowth < res.ZeroActiveGrowth {
		t.Error("<=1 active must include the zero-active projects")
	}
	// Every measure is non-normal; the paper's max p is ~1e-9.
	if res.MaxShapiroP() > 1e-6 {
		t.Errorf("max Shapiro-Wilk p = %g, expected non-normal everywhere", res.MaxShapiroP())
	}
	if !strings.Contains(res.Render(), "Shapiro-Wilk") {
		t.Error("render incomplete")
	}
}

func TestSection52CohesionRange(t *testing.T) {
	res, err := Section52(paperCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MDC) != len(core.AllPatterns) {
		t.Fatalf("MDC computed for %d patterns", len(res.MDC))
	}
	// Paper: MDC between 0.06 and 1.25 for 20-dim vectors in [0,1].
	if res.Min < 0 || res.Max > 1.6 {
		t.Errorf("MDC range %.2f..%.2f out of plausible bounds", res.Min, res.Max)
	}
	// Flatliners are the most cohesive pattern by construction.
	if res.MDC[core.Flatliner] > 0.2 {
		t.Errorf("flatliner MDC = %.2f, expected near 0", res.MDC[core.Flatliner])
	}
}

func TestSection61Medians(t *testing.T) {
	res := Section61(paperCtx(t))
	m := res.Medians
	// Shape checks against the paper's progression: BQBD small (radical
	// ~13, rest <3), Siesta ~17, Quantum ~22, Funnel ~189, RC ~250.
	if m[core.Flatliner] > 2 {
		t.Errorf("flatliner post-birth median = %v, paper: <3", m[core.Flatliner])
	}
	if m[core.Sigmoid] > 8 || m[core.LateRiser] > 8 {
		t.Errorf("sigmoid/late riser medians too large: %v / %v", m[core.Sigmoid], m[core.LateRiser])
	}
	if m[core.RadicalSign] < 5 || m[core.RadicalSign] > 25 {
		t.Errorf("radical sign median = %v, paper 13", m[core.RadicalSign])
	}
	if m[core.Siesta] < 8 || m[core.Siesta] > 35 {
		t.Errorf("siesta median = %v, paper 17", m[core.Siesta])
	}
	if m[core.QuantumSteps] < 10 || m[core.QuantumSteps] > 45 {
		t.Errorf("quantum median = %v, paper 22", m[core.QuantumSteps])
	}
	if m[core.SmokingFunnel] < 100 || m[core.SmokingFunnel] > 400 {
		t.Errorf("smoking funnel median = %v, paper 189", m[core.SmokingFunnel])
	}
	if m[core.RegularlyCurated] < 120 || m[core.RegularlyCurated] > 500 {
		t.Errorf("regularly curated median = %v, paper 250", m[core.RegularlyCurated])
	}
	// Ordering: the two active patterns are orders of magnitude above
	// the rest.
	if m[core.SmokingFunnel] < 4*m[core.QuantumSteps] || m[core.RegularlyCurated] < 4*m[core.QuantumSteps] {
		t.Error("active patterns should dominate by a large factor")
	}
}

func TestSection62Rigidity(t *testing.T) {
	f7, err := Figure7(paperCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	res := Section62(f7)
	if p := res.SharpFocused[predict.BornM0]; p < 0.70 || p > 0.80 {
		t.Errorf("P(sharp|M0) = %.2f, paper 75%%", p)
	}
	if res.FirstYear < 0.45 || res.FirstYear > 0.62 {
		t.Errorf("P(sharp|first year) = %.2f, paper ~53%%", res.FirstYear)
	}
	if p := res.SharpFocused[predict.BornAfterM12]; p < 0.55 || p > 0.72 {
		t.Errorf("P(sharp|>M12) = %.2f, paper 64%%", p)
	}
}

func TestSection63Mixture(t *testing.T) {
	res := Section63(paperCtx(t))
	// Change is biased toward expansion everywhere.
	for _, f := range core.AllFamilies {
		if res.FamilyShare[f] < 0.5 {
			t.Errorf("family %v expansion share = %.2f, expected expansion bias", f, res.FamilyShare[f])
		}
	}
	// BQBD patterns are near-monothematic (very high expansion).
	if res.FamilyShare[core.BeQuickOrBeDead] < 0.75 {
		t.Errorf("BQBD expansion share = %.2f", res.FamilyShare[core.BeQuickOrBeDead])
	}
}

func TestLabelSensitivity(t *testing.T) {
	res, err := LabelSensitivity(paperCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, changed := range res.Perturbations {
		// Robustness: no perturbation should reshuffle a large share of
		// the corpus.
		if changed > res.N/4 {
			t.Errorf("%s reclassified %d/%d projects", name, changed, res.N)
		}
	}
	if !strings.Contains(res.Render(), "perturbation") {
		t.Error("render incomplete")
	}
}

func TestTreeDepthAblation(t *testing.T) {
	res, err := TreeDepth(paperCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	// Deeper trees must not be worse on training data.
	if res.ByDepth[0][0] > res.ByDepth[1][0] {
		t.Errorf("unbounded tree (%d wrong) worse than a stump (%d wrong)",
			res.ByDepth[0][0], res.ByDepth[1][0])
	}
	if !strings.Contains(res.Render(), "unbounded") {
		t.Error("render incomplete")
	}
}

func TestUnsupervisedCrossCheck(t *testing.T) {
	res, err := Unsupervised(paperCtx(t), 42)
	if err != nil {
		t.Fatal(err)
	}
	// The time-shape vectors carry real signal: clustering should beat
	// the majority-class baseline (41/151 ≈ 0.27) comfortably.
	if res.Purity < 0.4 {
		t.Errorf("pattern purity = %.2f", res.Purity)
	}
	if res.FamilyPurity < res.Purity-1e-9 {
		t.Error("family purity cannot be below pattern purity")
	}
	if !strings.Contains(res.Render(), "k-means") {
		t.Error("render incomplete")
	}
}

func TestSection63TableGranularity(t *testing.T) {
	res := Section63(paperCtx(t))
	// Paper: "the granule of change [is] mostly the entire table".
	if res.CorpusTableGrainShare < 0.5 {
		t.Errorf("corpus table-grain share = %.2f, expected table-dominant change",
			res.CorpusTableGrainShare)
	}
	if !strings.Contains(res.Render(), "table-grain") {
		t.Error("render incomplete")
	}
}

func TestCoEvolutionExtension(t *testing.T) {
	res, err := CoEvolution(paperCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.N != 151 {
		t.Fatalf("N = %d", res.Overall.N)
	}
	// In the calibrated corpus the source grows throughout project life
	// while 2/3 of schemata freeze early: the schema leads for a clear
	// majority of projects.
	if res.Overall.SchemaLeads < 90 {
		t.Errorf("schema leads in %d/151 projects, expected a clear majority", res.Overall.SchemaLeads)
	}
	// Flatliners freeze at month 0: their source is barely started.
	if agg := res.PerPattern[core.Flatliner]; agg.MedianSourceAtTop > 0.25 {
		t.Errorf("flatliner source at freeze = %.2f", agg.MedianSourceAtTop)
	}
	// Late-change patterns freeze near the end of life: source nearly done.
	if agg := res.PerPattern[core.LateRiser]; agg.MedianSourceAtTop < 0.6 {
		t.Errorf("late riser source at freeze = %.2f", agg.MedianSourceAtTop)
	}
	if !strings.Contains(res.Render(), "co-evolution") {
		t.Error("render incomplete")
	}
}

func TestImpactExtension(t *testing.T) {
	res, err := Impact(paperCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	// Actively-evolving families must break more queries than the
	// frozen majority; flatliners break none after birth.
	active := res.BreakagesPerFamily[core.StairwayToHeaven]
	frozen := res.BreakagesPerFamily[core.BeQuickOrBeDead]
	if active == 0 {
		t.Error("active family broke no queries at all")
	}
	if active <= frozen {
		t.Errorf("active family breakages (%d) should exceed frozen family's (%d)", active, frozen)
	}
	if !strings.Contains(res.Render(), "breakage") {
		t.Error("render incomplete")
	}
}

func TestTableRigidityExtension(t *testing.T) {
	res := TableRigidity(paperCtx(t))
	if res.Report.Total < 500 {
		t.Fatalf("only %d table lives in the corpus", res.Report.Total)
	}
	// The companion studies report overwhelming table rigidity.
	if res.Report.RigidShare() < 0.5 {
		t.Errorf("rigid share = %.2f, expected a clear majority", res.Report.RigidShare())
	}
	if !strings.Contains(res.Render(), "rigid") {
		t.Error("render incomplete")
	}
}

func TestPredictionEval(t *testing.T) {
	res, err := PredictionEval(paperCtx(t), 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The birth point carries real signal: held-out accuracy must beat
	// the majority baseline on patterns and reach a solid family level.
	if res.EstimatorAccuracy <= res.MajorityBaseline {
		t.Errorf("estimator %.2f <= baseline %.2f", res.EstimatorAccuracy, res.MajorityBaseline)
	}
	if res.FamilyAccuracy < 0.5 {
		t.Errorf("family accuracy = %.2f", res.FamilyAccuracy)
	}
	if _, err := PredictionEval(paperCtx(t), 1, 0); err == nil {
		t.Error("folds < 2 should error")
	}
	if !strings.Contains(res.Render(), "cross-validation") {
		t.Error("render incomplete")
	}
}

func TestCorrelationAgreement(t *testing.T) {
	f2, err := Figure2(paperCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := CorrelationAgreement(paperCtx(t), f2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs == 0 {
		t.Fatal("no strong pairs")
	}
	if res.Agreements != res.Pairs {
		t.Errorf("sign agreement %d/%d", res.Agreements, res.Pairs)
	}
	if !strings.Contains(res.Render(), "Kendall") {
		t.Error("render incomplete")
	}
}
