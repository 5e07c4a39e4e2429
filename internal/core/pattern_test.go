package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"schemaevo/internal/quantize"
)

// labelsFor builds a label profile succinctly.
func labelsFor(bv quantize.BirthVolumeClass, bt, tp quantize.TimingClass,
	gi quantize.GrowthIntervalClass, tail quantize.TailClass,
	active int, vault bool) quantize.Labels {
	return quantize.Labels{
		BirthVolume:        bv,
		BirthTiming:        bt,
		TopBandPoint:       tp,
		IntervalBirthToTop: gi,
		IntervalTopToEnd:   tail,
		ActiveGrowthMonths: active,
		HasVault:           vault,
	}
}

func TestClassifyArchetypes(t *testing.T) {
	cases := []struct {
		name string
		l    quantize.Labels
		want Pattern
	}{
		{"flatliner", labelsFor(quantize.BirthVolFull, quantize.TimingVP0, quantize.TimingVP0,
			quantize.GrowthZero, quantize.TailFull, 0, true), Flatliner},
		{"radical sign from vp0", labelsFor(quantize.BirthVolHigh, quantize.TimingVP0, quantize.TimingEarly,
			quantize.GrowthSoon, quantize.TailLong, 0, true), RadicalSign},
		{"radical sign from early", labelsFor(quantize.BirthVolHigh, quantize.TimingEarly, quantize.TimingEarly,
			quantize.GrowthZero, quantize.TailLong, 0, true), RadicalSign},
		{"sigmoid", labelsFor(quantize.BirthVolFull, quantize.TimingMiddle, quantize.TimingMiddle,
			quantize.GrowthZero, quantize.TailFair, 0, true), Sigmoid},
		{"late riser", labelsFor(quantize.BirthVolHigh, quantize.TimingLate, quantize.TimingLate,
			quantize.GrowthZero, quantize.TailSoon, 0, true), LateRiser},
		{"quantum steps A", labelsFor(quantize.BirthVolHigh, quantize.TimingEarly, quantize.TimingMiddle,
			quantize.GrowthFair, quantize.TailFair, 2, false), QuantumSteps},
		{"quantum steps B", labelsFor(quantize.BirthVolFair, quantize.TimingMiddle, quantize.TimingLate,
			quantize.GrowthFair, quantize.TailSoon, 3, false), QuantumSteps},
		{"regularly curated A", labelsFor(quantize.BirthVolLow, quantize.TimingVP0, quantize.TimingLate,
			quantize.GrowthVeryLong, quantize.TailSoon, 8, false), RegularlyCurated},
		{"regularly curated B", labelsFor(quantize.BirthVolFair, quantize.TimingMiddle, quantize.TimingLate,
			quantize.GrowthFair, quantize.TailSoon, 5, false), RegularlyCurated},
		{"siesta", labelsFor(quantize.BirthVolFair, quantize.TimingEarly, quantize.TimingLate,
			quantize.GrowthVeryLong, quantize.TailSoon, 1, false), Siesta},
		{"smoking funnel", labelsFor(quantize.BirthVolFair, quantize.TimingMiddle, quantize.TimingMiddle,
			quantize.GrowthFair, quantize.TailFair, 6, false), SmokingFunnel},
	}
	for _, c := range cases {
		if got := Classify(c.l); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifyUnclassified(t *testing.T) {
	// Late birth reaching top band in middle life is impossible; build a
	// nearby combination no definition covers: late birth, late top, but
	// a fair interval (late risers need zero-or-soon).
	l := labelsFor(quantize.BirthVolHigh, quantize.TimingLate, quantize.TimingLate,
		quantize.GrowthFair, quantize.TailSoon, 0, false)
	if got := Classify(l); got != Unclassified {
		t.Errorf("Classify = %v, want Unclassified", got)
	}
	// Nearest should still put it with the late risers.
	if got := ClassifyNearest(l); got != LateRiser {
		t.Errorf("ClassifyNearest = %v, want LateRiser", got)
	}
}

// TestDefinitionsAreDisjoint enumerates the full label domain and checks
// that no profile satisfies two definitions (§5.3 formal disjointness).
func TestDefinitionsAreDisjoint(t *testing.T) {
	count := 0
	for bt := quantize.TimingVP0; bt <= quantize.TimingLate; bt++ {
		for tp := quantize.TimingVP0; tp <= quantize.TimingLate; tp++ {
			for gi := quantize.GrowthZero; gi <= quantize.GrowthVeryLong; gi++ {
				for _, active := range []int{0, 1, 3, 4, 10} {
					l := quantize.Labels{
						BirthTiming:        bt,
						TopBandPoint:       tp,
						IntervalBirthToTop: gi,
						ActiveGrowthMonths: active,
					}
					var matched []Pattern
					for _, p := range AllPatterns {
						if MatchesDefinition(p, l) {
							matched = append(matched, p)
						}
					}
					if len(matched) > 1 {
						t.Errorf("profile %v/%v/%v/%d matches %v", bt, tp, gi, active, matched)
					}
					if len(matched) == 1 {
						count++
					}
				}
			}
		}
	}
	if count == 0 {
		t.Fatal("no profile matched any definition")
	}
}

// TestClassifyAgreesWithMatches: Classify returns exactly the matching
// definition.
func TestClassifyAgreesWithMatches(t *testing.T) {
	for bt := quantize.TimingVP0; bt <= quantize.TimingLate; bt++ {
		for tp := quantize.TimingVP0; tp <= quantize.TimingLate; tp++ {
			for gi := quantize.GrowthZero; gi <= quantize.GrowthVeryLong; gi++ {
				for _, active := range []int{0, 2, 4} {
					l := quantize.Labels{
						BirthTiming: bt, TopBandPoint: tp,
						IntervalBirthToTop: gi, ActiveGrowthMonths: active,
					}
					got := Classify(l)
					if got == Unclassified {
						for _, p := range AllPatterns {
							if MatchesDefinition(p, l) {
								t.Fatalf("Classify missed %v for %+v", p, l)
							}
						}
					} else if !MatchesDefinition(got, l) {
						t.Fatalf("Classify returned non-matching %v for %+v", got, l)
					}
				}
			}
		}
	}
}

func TestClassifyNearestAlwaysReturnsAPattern(t *testing.T) {
	for bt := quantize.TimingVP0; bt <= quantize.TimingLate; bt++ {
		for tp := quantize.TimingVP0; tp <= quantize.TimingLate; tp++ {
			for gi := quantize.GrowthZero; gi <= quantize.GrowthVeryLong; gi++ {
				l := quantize.Labels{BirthTiming: bt, TopBandPoint: tp, IntervalBirthToTop: gi}
				if got := ClassifyNearest(l); got == Unclassified {
					t.Fatalf("ClassifyNearest returned Unclassified for %+v", l)
				}
			}
		}
	}
}

func TestFamilies(t *testing.T) {
	wants := map[Pattern]Family{
		Flatliner: BeQuickOrBeDead, RadicalSign: BeQuickOrBeDead,
		Sigmoid: BeQuickOrBeDead, LateRiser: BeQuickOrBeDead,
		QuantumSteps: StairwayToHeaven, RegularlyCurated: StairwayToHeaven,
		Siesta: ScaredToFallAsleepAgain, SmokingFunnel: ScaredToFallAsleepAgain,
		Unclassified: NoFamily,
	}
	for p, f := range wants {
		if got := FamilyOf(p); got != f {
			t.Errorf("FamilyOf(%v) = %v, want %v", p, got, f)
		}
	}
}

func TestPatternStringsRoundTrip(t *testing.T) {
	for _, p := range AllPatterns {
		back, ok := ParsePattern(p.String())
		if !ok || back != p {
			t.Errorf("round trip %v -> %q -> %v (%v)", p, p.String(), back, ok)
		}
	}
	if _, ok := ParsePattern("No Such Pattern"); ok {
		t.Error("unknown name accepted")
	}
}

func TestExceptionsAndOverlaps(t *testing.T) {
	flat := labelsFor(quantize.BirthVolFull, quantize.TimingVP0, quantize.TimingVP0,
		quantize.GrowthZero, quantize.TailFull, 0, true)
	// A "sigmoid" member born early violates Def 4.3 (the paper's own
	// exception case).
	earlySigmoid := labelsFor(quantize.BirthVolFull, quantize.TimingEarly, quantize.TimingMiddle,
		quantize.GrowthSoon, quantize.TailFair, 0, true)
	subjects := []Subject{
		{Name: "f1", Labels: flat, Assigned: Flatliner},
		{Name: "f2", Labels: flat, Assigned: Flatliner},
		{Name: "sx", Labels: earlySigmoid, Assigned: Sigmoid},
	}
	reports := Exceptions(subjects)
	byPattern := map[Pattern]ExceptionReport{}
	for _, r := range reports {
		byPattern[r.Pattern] = r
	}
	if byPattern[Flatliner].Projects != 2 || len(byPattern[Flatliner].Exceptions) != 0 {
		t.Errorf("flatliner report: %+v", byPattern[Flatliner])
	}
	if byPattern[Sigmoid].Projects != 1 || len(byPattern[Sigmoid].Exceptions) != 1 ||
		byPattern[Sigmoid].Exceptions[0] != "sx" {
		t.Errorf("sigmoid report: %+v", byPattern[Sigmoid])
	}
}

func TestProfilesAggregation(t *testing.T) {
	subjects := []Subject{
		{Name: "a", Assigned: QuantumSteps, Labels: labelsFor(quantize.BirthVolHigh,
			quantize.TimingEarly, quantize.TimingMiddle, quantize.GrowthFair, quantize.TailFair, 2, false)},
		{Name: "b", Assigned: QuantumSteps, Labels: labelsFor(quantize.BirthVolFair,
			quantize.TimingVP0, quantize.TimingMiddle, quantize.GrowthLong, quantize.TailFair, 3, false)},
	}
	profiles := Profiles(subjects)
	var qs Profile
	for _, p := range profiles {
		if p.Pattern == QuantumSteps {
			qs = p
		}
	}
	if qs.Count != 2 {
		t.Fatalf("count = %d", qs.Count)
	}
	if qs.BirthTiming["early"] != 1 || qs.BirthTiming["vp0"] != 1 {
		t.Errorf("birth timing: %v", qs.BirthTiming)
	}
	if qs.ActiveMonthsMin != 2 || qs.ActiveMonthsMax != 3 {
		t.Errorf("active bounds: %d..%d", qs.ActiveMonthsMin, qs.ActiveMonthsMax)
	}
	if qs.Vault["false"] != 2 {
		t.Errorf("vault: %v", qs.Vault)
	}
}

func TestDomainCoverage(t *testing.T) {
	flat := labelsFor(quantize.BirthVolFull, quantize.TimingVP0, quantize.TimingVP0,
		quantize.GrowthZero, quantize.TailFull, 0, true)
	qsA := labelsFor(quantize.BirthVolHigh, quantize.TimingEarly, quantize.TimingMiddle,
		quantize.GrowthFair, quantize.TailFair, 2, false)
	subjects := []Subject{
		{Name: "f1", Labels: flat, Assigned: Flatliner},
		{Name: "f2", Labels: flat, Assigned: Flatliner},
		{Name: "q1", Labels: qsA, Assigned: QuantumSteps},
	}
	points := DomainCoverage(subjects)
	if len(points) != 2 {
		t.Fatalf("points = %+v", points)
	}
	var flatPoint DomainPoint
	for _, pt := range points {
		if pt.BirthTiming == "vp0" {
			flatPoint = pt
		}
	}
	if flatPoint.Total != 2 || flatPoint.Patterns[Flatliner] != 2 {
		t.Errorf("flat point: %+v", flatPoint)
	}
	if shared := SharedPoints(points); len(shared) != 0 {
		t.Errorf("unexpected shared points: %+v", shared)
	}
}

func TestLabelSet(t *testing.T) {
	s := LabelSet(map[string]int{"high": 30, "full": 10, "low": 1})
	if s != "high, full, low (1)" {
		t.Errorf("LabelSet = %q", s)
	}
	if LabelSet(map[string]int{}) != "" {
		t.Error("empty map should render empty")
	}
}

func TestDescribe(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range append([]Pattern{Unclassified}, AllPatterns...) {
		d := Describe(p)
		if d == "" || seen[d] {
			t.Errorf("Describe(%v) empty or duplicated", p)
		}
		seen[d] = true
	}
	for _, f := range AllFamilies {
		if DescribeFamily(f) == "" {
			t.Errorf("DescribeFamily(%v) empty", f)
		}
	}
	if DescribeFamily(NoFamily) != "" {
		t.Error("NoFamily should have no description")
	}
}

// TestNearestOnlyClause pins what the nearest-only low-rate clause
// decides. Over the 150 coarse profiles (top band not before birth, every
// interval, 0, 2 or 5 active growth months), 33 match no definition; 15
// of those tie on score and go to the first pattern in AllPatterns order,
// and for exactly these 12 the clause no definition states picks the
// pattern that scoring only the paper's clauses would not.
func TestNearestOnlyClause(t *testing.T) {
	want := map[string]Pattern{
		"vp0/late/zero/0": LateRiser, "vp0/late/zero/2": LateRiser,
		"vp0/late/soon/0": LateRiser, "vp0/late/soon/2": LateRiser,
		"early/late/zero/0": LateRiser, "early/late/zero/2": LateRiser,
		"early/late/soon/0": LateRiser, "early/late/soon/2": LateRiser,
		"middle/middle/fair/0": Sigmoid, "middle/middle/fair/2": Sigmoid,
		"late/late/vlong/0": LateRiser, "late/late/vlong/2": LateRiser,
	}
	unmatched, ties, decided := 0, 0, map[string]Pattern{}
	for bt := quantize.TimingVP0; bt <= quantize.TimingLate; bt++ {
		for tp := bt; tp <= quantize.TimingLate; tp++ {
			for gi := quantize.GrowthZero; gi <= quantize.GrowthVeryLong; gi++ {
				for _, active := range []int{0, 2, 5} {
					l := quantize.Labels{BirthTiming: bt, TopBandPoint: tp, IntervalBirthToTop: gi, ActiveGrowthMonths: active}
					if Classify(l) != Unclassified {
						continue
					}
					unmatched++
					v := labelValues(l)
					var paperBest Pattern
					bestScore, bestPaper, atBest := -1, -1, 0
					for _, p := range AllPatterns {
						_, s := definitions[p].score(&v)
						switch {
						case s > bestScore:
							bestScore, atBest = s, 1
						case s == bestScore:
							atBest++
						}
						paper := 0
						for _, alt := range definitions[p].alternatives {
							n := 0
							for _, c := range alt {
								if !c.nearestOnly && c.holds(&v) {
									n++
								}
							}
							paper = max(paper, n)
						}
						if paper > bestPaper {
							paperBest, bestPaper = p, paper
						}
					}
					if atBest > 1 {
						ties++
					}
					if got := ClassifyNearest(l); got != paperBest {
						decided[fmt.Sprintf("%v/%v/%v/%d", bt, tp, gi, active)] = got
					}
				}
			}
		}
	}
	if unmatched != 33 || ties != 15 {
		t.Errorf("%d coarse profiles match no definition, %d of them tie; want 33 and 15", unmatched, ties)
	}
	if !reflect.DeepEqual(decided, want) {
		t.Errorf("the nearest-only clause decides %v, want %v", decided, want)
	}
}

// TestDefinitionTable checks the table's shape: one row per pattern, each
// named, in a family and described, and every clause worded, the
// nearest-only ones saying that the paper does not state them.
func TestDefinitionTable(t *testing.T) {
	for _, p := range AllPatterns {
		d := definitions[p]
		if d.name == "" || d.family == NoFamily || d.prose == "" || len(d.alternatives) == 0 {
			t.Errorf("%v: incomplete row %+v", p, d)
		}
		for _, alt := range d.alternatives {
			for _, c := range alt {
				if c.text == "" || c.allow == 0 || c.nearestOnly != strings.Contains(c.text, "not in the paper") {
					t.Errorf("%v: clause %+v", p, c)
				}
			}
		}
	}
	if len(definitions) != len(AllPatterns)+1 || len(definitions[Unclassified].alternatives) != 0 {
		t.Errorf("the table has %d rows; want Unclassified, without clauses, and the eight patterns", len(definitions))
	}
}
