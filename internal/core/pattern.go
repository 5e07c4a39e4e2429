// Package core implements the paper's primary contribution: the eight
// time-related patterns of schema evolution (Definitions 4.1-4.8),
// organized in three families, as a rule-based classifier over the
// quantized label profile of a project, plus exception detection
// (Table 2) and the per-pattern characteristics overview (Fig. 4). Each
// pattern's name, family, prose and clauses live in one table row.
package core

import (
	"fmt"

	"schemaevo/internal/quantize"
)

// Pattern identifies one of the eight time-related patterns.
type Pattern int

// The eight patterns of §4, plus Unclassified for profiles that satisfy
// no definition (the paper's manually-earmarked exceptions live inside
// their assigned pattern; see Exceptions).
const (
	Unclassified Pattern = iota
	Flatliner
	RadicalSign
	Sigmoid
	LateRiser
	QuantumSteps
	RegularlyCurated
	Siesta
	SmokingFunnel
)

// AllPatterns lists the eight patterns in the paper's presentation order.
var AllPatterns = []Pattern{
	Flatliner, RadicalSign, Sigmoid, LateRiser,
	QuantumSteps, RegularlyCurated, Siesta, SmokingFunnel,
}

// Family identifies one of the three pattern families.
type Family int

// The three families of §4.
const (
	NoFamily Family = iota
	BeQuickOrBeDead
	StairwayToHeaven
	ScaredToFallAsleepAgain
)

// AllFamilies lists the three families in presentation order.
var AllFamilies = []Family{BeQuickOrBeDead, StairwayToHeaven, ScaredToFallAsleepAgain}

// families holds each family's name and §4 prose, indexed by Family.
var families = [...]struct{ name, prose string }{
	NoFamily: {name: "None"},
	BeQuickOrBeDead: {"Be Quick or Be Dead",
		"Very focused change close to the point of schema birth; the " +
			"member patterns differ only in when that birth happens. Two " +
			"thirds of the corpus."},
	StairwayToHeaven: {"Stairway to Heaven",
		"A fairly regular rate of change with steps distributed over " +
			"time; the member patterns differ in the density of the steps. " +
			"A quarter of the corpus."},
	ScaredToFallAsleepAgain: {"Scared to Fall Asleep Again",
		"Change that arrives (or resumes) late in the project's " +
			"life. About a tenth of the corpus."},
}

func (f Family) String() string {
	if f >= 0 && int(f) < len(families) {
		return families[f].name
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// DescribeFamily returns the §4 prose characterization of a family.
func DescribeFamily(f Family) string {
	if f >= 0 && int(f) < len(families) {
		return families[f].prose
	}
	return ""
}

// label names one of the four label dimensions the definitions read.
type label uint8

const (
	birthTiming label = iota // Labels.BirthTiming
	topBand                  // Labels.TopBandPoint
	interval                 // Labels.IntervalBirthToTop
	changeRate               // Labels.ActiveGrowthMonths, as lowRate or highRate
)

// The change-rate values: Definitions 4.5-4.8 separate at most 3 active
// growth months (lowRate) from more than 3 (highRate).
const (
	lowRate, highRate = 0, 1
	lowRateMaxActive  = 3
)

// labelValues returns a profile's value on each label dimension, indexed
// by label.
func labelValues(l quantize.Labels) [4]int {
	rate := lowRate
	if l.ActiveGrowthMonths > lowRateMaxActive {
		rate = highRate
	}
	return [4]int{int(l.BirthTiming), int(l.TopBandPoint), int(l.IntervalBirthToTop), rate}
}

// A clause constrains one label to a set of allowed values: bit v of
// allow is set when value v satisfies it. text is the paper's wording.
type clause struct {
	on    label
	allow uint8
	text  string
	// nearestOnly marks a clause no definition states. It counts toward
	// ClassifyNearest's score and never toward a definitional match.
	nearestOnly bool
}

// holds reports whether the label values satisfy the clause; an
// out-of-range value satisfies none.
func (c clause) holds(v *[4]int) bool { return c.allow>>uint(v[c.on])&1 == 1 }

// anyOf builds an allowed-value mask.
func anyOf[T ~int](values ...T) uint8 {
	var m uint8
	for _, v := range values {
		m |= 1 << v
	}
	return m
}

// definition is one row of the table. A profile matches it when it
// satisfies every paper clause of at least one alternative.
type definition struct {
	name         string
	family       Family
	prose        string
	alternatives [][]clause
}

// The clauses of Definitions 4.1-4.8, each in the paper's wording.
var (
	bornVP0        = clause{on: birthTiming, allow: anyOf(quantize.TimingVP0), text: "born at V_p^0"}
	bornVP0OrEarly = clause{on: birthTiming, allow: anyOf(quantize.TimingVP0, quantize.TimingEarly), text: "born at V_p^0 or early"}
	bornMiddle     = clause{on: birthTiming, allow: anyOf(quantize.TimingMiddle), text: "born in the middle"}
	bornLate       = clause{on: birthTiming, allow: anyOf(quantize.TimingLate), text: "born late"}
	topVP0         = clause{on: topBand, allow: anyOf(quantize.TimingVP0), text: "top band attained at V_p^0"}
	topEarly       = clause{on: topBand, allow: anyOf(quantize.TimingEarly), text: "top band attained early"}
	topMiddle      = clause{on: topBand, allow: anyOf(quantize.TimingMiddle), text: "top band attained in the middle"}
	topLate        = clause{on: topBand, allow: anyOf(quantize.TimingLate), text: "top band attained late"}
	topMiddleLate  = clause{on: topBand, allow: anyOf(quantize.TimingMiddle, quantize.TimingLate), text: "top band attained in the middle or late"}
	zeroOrSoon     = clause{on: interval, allow: anyOf(quantize.GrowthZero, quantize.GrowthSoon), text: "zero-or-soon interval from birth to top band"}
	fairInterval   = clause{on: interval, allow: anyOf(quantize.GrowthFair), text: "fair interval from birth to top band"}
	veryLong       = clause{on: interval, allow: anyOf(quantize.GrowthVeryLong), text: "very long interval from birth to top band"}
	lowRateClause  = clause{on: changeRate, allow: anyOf(lowRate), text: "at most 3 active growth months"}
	highRateClause = clause{on: changeRate, allow: anyOf(highRate), text: "more than 3 active growth months"}
	// nearestLowRate is in no definition. It has always been part of the
	// nearest-pattern score of the four Be Quick or Be Dead patterns, and
	// it decides 12 of the 150 coarse profiles that match no definition
	// (DESIGN.md §17); dropping it changes served patterns.
	nearestLowRate = clause{on: changeRate, allow: anyOf(lowRate), nearestOnly: true,
		text: "at most 3 active growth months (not in the paper; nearest pattern only)"}
)

// definitions is the table of §4, indexed by Pattern.
var definitions = [...]definition{
	Unclassified: {name: "Unclassified",
		prose: "No formal pattern definition fits this label profile exactly."},
	Flatliner: {name: "Flatliner", family: BeQuickOrBeDead,
		prose: "Practically frozen: the schema is born at the originating " +
			"version of the project and all of its (little) change happens " +
			"in that first month, leaving a flat line for the rest of the " +
			"project's life (Def. 4.1).",
		alternatives: [][]clause{{bornVP0, topVP0, nearestLowRate}}},
	RadicalSign: {name: "Radical Sign", family: BeQuickOrBeDead,
		prose: "Born early and rising to (usually all of) its total change " +
			"in a sharp vault right after birth, followed by a long frozen " +
			"tail — the most populous pattern (Def. 4.2).",
		alternatives: [][]clause{{bornVP0OrEarly, topEarly, nearestLowRate}}},
	Sigmoid: {name: "Sigmoid", family: BeQuickOrBeDead,
		prose: "Born in the middle of the project's life with a very sharp " +
			"rise to the top band at birth and a long frozen tail — the " +
			"archetypal shape all the almost-no-evolution patterns vary on " +
			"(Def. 4.3).",
		alternatives: [][]clause{{bornMiddle, topMiddle, zeroOrSoon, nearestLowRate}}},
	LateRiser: {name: "Late Riser", family: BeQuickOrBeDead,
		prose: "Born late (after three quarters of the project's life) with " +
			"very little change afterwards; the schema's life is summarized " +
			"by one late vault (Def. 4.4).",
		alternatives: [][]clause{{bornLate, topLate, zeroOrSoon, nearestLowRate}}},
	QuantumSteps: {name: "Quantum Steps", family: StairwayToHeaven,
		prose: "A few focused points of change (at most 3 active months) on " +
			"the journey from an early-or-middle birth to the top band — " +
			"rare but regular steps (Def. 4.5).",
		alternatives: [][]clause{
			{bornVP0OrEarly, topMiddle, lowRateClause},
			{bornMiddle, topLate, lowRateClause},
		}},
	RegularlyCurated: {name: "Regularly Curated", family: StairwayToHeaven,
		prose: "Consistently maintained: more than 3 active growth months " +
			"spread between birth and a middle-or-late top band, with the " +
			"highest change volumes of the corpus (Def. 4.6).",
		// Siesta's area (early birth, late top, very long interval) is
		// Siesta's only at a low change rate.
		alternatives: [][]clause{
			{bornVP0OrEarly, topMiddleLate, highRateClause},
			{bornMiddle, topLate, highRateClause},
		}},
	Siesta: {name: "Siesta", family: ScaredToFallAsleepAgain,
		prose: "Born early at a significant share of its total change, then " +
			"idle for a very long time, and finally changed again late in " +
			"the project's life (Def. 4.7).",
		alternatives: [][]clause{{bornVP0OrEarly, topLate, veryLong, lowRateClause}}},
	SmokingFunnel: {name: "Smoking Funnel", family: ScaredToFallAsleepAgain,
		prose: "Born mid-life at a medium share of its total change and " +
			"densely evolved through a fair interval, with change continuing " +
			"into the tail (Def. 4.8).",
		alternatives: [][]clause{{bornMiddle, topMiddle, fairInterval, highRateClause}}},
}

// undefined is the row of a Pattern value outside the table.
var undefined definition

func (p Pattern) def() *definition {
	if p < 0 || int(p) >= len(definitions) {
		return &undefined
	}
	return &definitions[p]
}

// score evaluates a definition on label values: whether some alternative
// satisfies all of its paper clauses, and the most clauses, nearest-only
// ones included, that any one alternative satisfies.
func (d *definition) score(v *[4]int) (match bool, best int) {
	for _, alt := range d.alternatives {
		n, missed := 0, false
		for _, c := range alt {
			if c.holds(v) {
				n++
			} else if !c.nearestOnly {
				missed = true
			}
		}
		match = match || !missed
		best = max(best, n)
	}
	return match, best
}

func (p Pattern) String() string {
	if name := p.def().name; name != "" {
		return name
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// ParsePattern maps a pattern name (as produced by String) back to the
// Pattern value; it reports false for unknown names.
func ParsePattern(name string) (Pattern, bool) {
	for i := range definitions {
		if definitions[i].name == name {
			return Pattern(i), true
		}
	}
	return Unclassified, false
}

// FamilyOf returns the family of a pattern.
func FamilyOf(p Pattern) Family { return p.def().family }

// Describe returns the §4 prose characterization of a pattern, used by
// the CLI and documentation surfaces.
func Describe(p Pattern) string { return p.def().prose }

// MatchesDefinition reports whether a label profile satisfies the formal
// definition of the given pattern: the test of the Table 2 exception
// audit (a project kept in a pattern by the manual grouping may violate
// the pattern's formal definition).
func MatchesDefinition(p Pattern, l quantize.Labels) bool {
	v := labelValues(l)
	match, _ := p.def().score(&v)
	return match
}

// Assign classifies a profile in one pass: the pattern whose definition
// it satisfies with exact true, otherwise the nearest pattern (see
// ClassifyNearest) with exact false.
func Assign(l quantize.Labels) (p Pattern, exact bool) {
	v := labelValues(l)
	bestScore := -1
	for _, q := range AllPatterns {
		match, s := definitions[q].score(&v)
		if match {
			return q, true
		}
		if s > bestScore {
			p, bestScore = q, s
		}
	}
	return p, false
}

// Classify applies the formal definitions of §4 and returns the pattern
// whose defining conditions the label profile satisfies, or Unclassified
// when none matches. The definitions are pairwise disjoint (§5.3), so at
// most one can match and evaluation order is immaterial.
func Classify(l quantize.Labels) Pattern {
	if p, exact := Assign(l); exact {
		return p
	}
	return Unclassified
}

// ClassifyNearest always returns a pattern: the definitional match when
// one exists, otherwise the pattern with the most clauses satisfied,
// scoring each pattern by its best alternative and counting its
// nearest-only clauses too; a tie goes to the pattern first in
// AllPatterns order. It mirrors the paper's manual practice of keeping a
// project in the pattern it most resembles even when the formal
// definition is (slightly) violated.
func ClassifyNearest(l quantize.Labels) Pattern {
	p, _ := Assign(l)
	return p
}
