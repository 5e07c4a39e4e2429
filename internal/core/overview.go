package core

import (
	"sort"
	"strconv"
	"strings"

	"schemaevo/internal/quantize"
)

// Subject is the minimal view of a project the taxonomy operates on: its
// quantized label profile and the pattern it was assigned to (in the
// paper: by manual annotation; here: the generator's ground truth or
// ClassifyNearest for fresh projects).
type Subject struct {
	Name     string
	Labels   quantize.Labels
	Assigned Pattern
}

// IsException reports whether the subject violates the formal definition
// of its assigned pattern — the paper's Table 2 exceptions.
func (s Subject) IsException() bool {
	return s.Assigned != Unclassified && !MatchesDefinition(s.Assigned, s.Labels)
}

// ExceptionReport summarizes Table 2 for one pattern.
type ExceptionReport struct {
	Pattern Pattern
	// Projects is the pattern's population size.
	Projects int
	// Exceptions names the member projects violating the definition.
	Exceptions []string
	// Overlaps names member projects whose profile also satisfies some
	// other pattern's definition (the paper reports none).
	Overlaps []string
}

// Exceptions audits a classified corpus against the formal definitions,
// producing the data behind Table 2.
func Exceptions(subjects []Subject) []ExceptionReport {
	byPattern := map[Pattern]*ExceptionReport{}
	for _, p := range AllPatterns {
		byPattern[p] = &ExceptionReport{Pattern: p}
	}
	for _, s := range subjects {
		r, ok := byPattern[s.Assigned]
		if !ok {
			continue
		}
		r.Projects++
		if s.IsException() {
			r.Exceptions = append(r.Exceptions, s.Name)
			continue
		}
		for _, other := range AllPatterns {
			if other != s.Assigned && MatchesDefinition(other, s.Labels) {
				r.Overlaps = append(r.Overlaps, s.Name)
				break
			}
		}
	}
	out := make([]ExceptionReport, 0, len(AllPatterns))
	for _, p := range AllPatterns {
		sort.Strings(byPattern[p].Exceptions)
		sort.Strings(byPattern[p].Overlaps)
		out = append(out, *byPattern[p])
	}
	return out
}

// Profile aggregates the observed label values of one pattern's members —
// one row of the Fig. 4 overview.
type Profile struct {
	Pattern Pattern
	Count   int
	// Each map counts members per observed label value.
	BirthVol     map[string]int
	BirthTiming  map[string]int
	TopBandPoint map[string]int
	Vault        map[string]int
	GrowInterval map[string]int
	ActGrowth    map[string]int
	ActPUP       map[string]int
	Tail         map[string]int
	// ActiveMonthsMin/Max bound the raw active-growth-month counts.
	ActiveMonthsMin, ActiveMonthsMax int
}

// Profiles computes the Fig. 4 overview for a classified corpus, in the
// paper's pattern order.
func Profiles(subjects []Subject) []Profile {
	byPattern := map[Pattern]*Profile{}
	for _, p := range AllPatterns {
		byPattern[p] = &Profile{
			Pattern:      p,
			BirthVol:     map[string]int{},
			BirthTiming:  map[string]int{},
			TopBandPoint: map[string]int{},
			Vault:        map[string]int{},
			GrowInterval: map[string]int{},
			ActGrowth:    map[string]int{},
			ActPUP:       map[string]int{},
			Tail:         map[string]int{},
		}
	}
	for _, s := range subjects {
		pr, ok := byPattern[s.Assigned]
		if !ok {
			continue
		}
		l := s.Labels
		if pr.Count == 0 || l.ActiveGrowthMonths < pr.ActiveMonthsMin {
			pr.ActiveMonthsMin = l.ActiveGrowthMonths
		}
		if l.ActiveGrowthMonths > pr.ActiveMonthsMax {
			pr.ActiveMonthsMax = l.ActiveGrowthMonths
		}
		pr.Count++
		pr.BirthVol[l.BirthVolume.String()]++
		pr.BirthTiming[l.BirthTiming.String()]++
		pr.TopBandPoint[l.TopBandPoint.String()]++
		if l.HasVault {
			pr.Vault["true"]++
		} else {
			pr.Vault["false"]++
		}
		pr.GrowInterval[l.IntervalBirthToTop.String()]++
		pr.ActGrowth[l.ActivePctGrowth.String()]++
		pr.ActPUP[l.ActivePctPUP.String()]++
		pr.Tail[l.IntervalTopToEnd.String()]++
	}
	out := make([]Profile, 0, len(AllPatterns))
	for _, p := range AllPatterns {
		out = append(out, *byPattern[p])
	}
	return out
}

// LabelSet renders a count map as "a, b (n), c" — values sorted by
// descending count, minority values annotated with their counts.
func LabelSet(m map[string]int) string {
	type kv struct {
		k string
		n int
	}
	items := make([]kv, 0, len(m))
	total := 0
	for k, n := range m {
		items = append(items, kv{k, n})
		total += n
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].n != items[j].n {
			return items[i].n > items[j].n
		}
		return items[i].k < items[j].k
	})
	var parts []string
	for _, it := range items {
		// Annotate clear minorities (under 15% of the pattern).
		if total > 0 && it.n*100 < total*15 {
			parts = append(parts, it.k+" ("+strconv.Itoa(it.n)+")")
		} else {
			parts = append(parts, it.k)
		}
	}
	return strings.Join(parts, ", ")
}

// DomainPoint is one populated combination of the four defining label
// dimensions — one cell of the Fig. 6 active-domain view.
type DomainPoint struct {
	BirthTiming  string
	TopBandPoint string
	GrowInterval string
	FewActive    bool // at most 3 active growth months
	// Count per assigned pattern for projects at this point.
	Patterns map[Pattern]int
	Total    int
}

// Key renders the coordinate tuple.
func (d DomainPoint) Key() string {
	rate := "few"
	if !d.FewActive {
		rate = "many"
	}
	return d.BirthTiming + "/" + d.TopBandPoint + "/" + d.GrowInterval + "/" + rate
}

// DomainCoverage groups a classified corpus by the Cartesian coordinates
// of the defining attributes, reproducing Fig. 6: which parts of the
// space are populated, by how many projects, of which patterns.
func DomainCoverage(subjects []Subject) []DomainPoint {
	byKey := map[string]*DomainPoint{}
	for _, s := range subjects {
		d := DomainPoint{
			BirthTiming:  s.Labels.BirthTiming.String(),
			TopBandPoint: s.Labels.TopBandPoint.String(),
			GrowInterval: s.Labels.IntervalBirthToTop.String(),
			FewActive:    s.Labels.ActiveGrowthMonths <= lowRateMaxActive,
		}
		k := d.Key()
		pt, ok := byKey[k]
		if !ok {
			d.Patterns = map[Pattern]int{}
			byKey[k] = &d
			pt = &d
		}
		pt.Patterns[s.Assigned]++
		pt.Total++
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]DomainPoint, 0, len(keys))
	for _, k := range keys {
		out = append(out, *byKey[k])
	}
	return out
}

// SharedPoints returns the domain points populated by more than one
// pattern — the essential-disjointness check of §5.3 expects (almost)
// none once change rate is part of the coordinates.
func SharedPoints(points []DomainPoint) []DomainPoint {
	var out []DomainPoint
	for _, p := range points {
		if len(p.Patterns) > 1 {
			out = append(out, p)
		}
	}
	return out
}
