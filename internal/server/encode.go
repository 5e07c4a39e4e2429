package server

// Hand-rolled append-based JSON encoders for the hot wire types. The
// serving read path renders each body exactly once into an immutable
// []byte (see rendercache.go), so the encoder's job is to be
// byte-identical to the reflection rendering the goldens pin —
// json.MarshalIndent(v, "", "  ") plus a trailing newline for the /v1
// document bodies, compact json.Marshal for the batch NDJSON lines —
// while allocating nothing beyond the destination buffer.
//
// Byte-identity is enforced two ways: TestEncodersMatchReflection diffs
// every golden-shaped body against encoding/json, and FuzzWireEncoders
// drives adversarial strings and floats through both renderings. If
// encoding/json's output format ever changes, those tests fail loudly
// and the goldens decide which side moves.

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const jsonHex = "0123456789abcdef"

// jsonStringSafe reports whether byte b may appear verbatim inside a
// JSON string under encoding/json's HTML-escaping rules (its
// htmlSafeSet): printable ASCII except '"', '\\', '<', '>', '&'.
func jsonStringSafe(b byte) bool {
	if b < 0x20 || b >= utf8.RuneSelf {
		return false
	}
	switch b {
	case '"', '\\', '<', '>', '&':
		return false
	}
	return true
}

// appendJSONString appends s as a JSON string literal, byte-identical to
// encoding/json with escapeHTML=true: short escapes for the classic
// control characters, \u00xx for the rest of C0 and for <, >, &,
// � for invalid UTF-8, and  /  escaped for JSONP safety.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonStringSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f in encoding/json's ES6-style number
// rendering: shortest round-trip representation, 'f' form inside
// [1e-6, 1e21), 'e' form outside with the exponent's leading zero
// stripped. NaN and infinities (which encoding/json rejects) render as
// 0 — the wire measures are finite by construction, so this is a
// never-taken guard, not a format choice.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, '0')
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONBool appends the JSON boolean literal.
func appendJSONBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// Indentation prefixes for MarshalIndent(v, "", "  ") depths 1..5. The
// patterns document nests deepest, at five levels.
const (
	ind1 = "\n  "
	ind2 = "\n    "
	ind3 = "\n      "
	ind4 = "\n        "
	ind5 = "\n          "
)

// appendProjectWire renders the projectWire body — byte-identical to
// json.MarshalIndent(w, "", "  ") with a trailing newline, the exact
// bytes the pinned API goldens hold.
func appendProjectWire(dst []byte, w *projectWire) []byte {
	dst = append(dst, '{')
	dst = append(dst, ind1+`"schema_version": `...)
	dst = strconv.AppendInt(dst, int64(w.SchemaVersion), 10)
	dst = append(dst, ","+ind1+`"id": `...)
	dst = appendJSONString(dst, w.ID)
	dst = append(dst, ","+ind1+`"project": `...)
	dst = appendJSONString(dst, w.Project)
	dst = append(dst, ","+ind1+`"dialect": `...)
	dst = appendJSONString(dst, w.Dialect)
	dst = append(dst, ","+ind1+`"pattern": `...)
	dst = appendJSONString(dst, w.Pattern)
	dst = append(dst, ","+ind1+`"family": `...)
	dst = appendJSONString(dst, w.Family)
	dst = append(dst, ","+ind1+`"exact": `...)
	dst = appendJSONBool(dst, w.Exact)

	m := &w.Measures
	dst = append(dst, ","+ind1+`"measures": {`...)
	dst = append(dst, ind2+`"pup_months": `...)
	dst = strconv.AppendInt(dst, int64(m.PUPMonths), 10)
	dst = append(dst, ","+ind2+`"birth_month": `...)
	dst = strconv.AppendInt(dst, int64(m.BirthMonth), 10)
	dst = append(dst, ","+ind2+`"birth_pct": `...)
	dst = appendJSONFloat(dst, m.BirthPct)
	dst = append(dst, ","+ind2+`"birth_volume_pct": `...)
	dst = appendJSONFloat(dst, m.BirthVolumePct)
	dst = append(dst, ","+ind2+`"top_band_month": `...)
	dst = strconv.AppendInt(dst, int64(m.TopBandMonth), 10)
	dst = append(dst, ","+ind2+`"top_band_pct": `...)
	dst = appendJSONFloat(dst, m.TopBandPct)
	dst = append(dst, ","+ind2+`"interval_birth_to_top_pct": `...)
	dst = appendJSONFloat(dst, m.IntervalBirthToTopPct)
	dst = append(dst, ","+ind2+`"interval_top_to_end_pct": `...)
	dst = appendJSONFloat(dst, m.IntervalTopToEndPct)
	dst = append(dst, ","+ind2+`"has_vault": `...)
	dst = appendJSONBool(dst, m.HasVault)
	dst = append(dst, ","+ind2+`"active_growth_months": `...)
	dst = strconv.AppendInt(dst, int64(m.ActiveGrowthMonths), 10)
	dst = append(dst, ","+ind2+`"active_pct_growth": `...)
	dst = appendJSONFloat(dst, m.ActivePctGrowth)
	dst = append(dst, ","+ind2+`"active_pct_pup": `...)
	dst = appendJSONFloat(dst, m.ActivePctPUP)
	dst = append(dst, ","+ind2+`"total_activity": `...)
	dst = strconv.AppendInt(dst, int64(m.TotalActivity), 10)
	dst = append(dst, ","+ind2+`"expansion": `...)
	dst = strconv.AppendInt(dst, int64(m.Expansion), 10)
	dst = append(dst, ","+ind2+`"maintenance": `...)
	dst = strconv.AppendInt(dst, int64(m.Maintenance), 10)
	dst = append(dst, ","+ind2+`"tables_at_birth": `...)
	dst = strconv.AppendInt(dst, int64(m.TablesAtBirth), 10)
	dst = append(dst, ","+ind2+`"attrs_at_birth": `...)
	dst = strconv.AppendInt(dst, int64(m.AttrsAtBirth), 10)
	dst = append(dst, ","+ind2+`"tables_at_end": `...)
	dst = strconv.AppendInt(dst, int64(m.TablesAtEnd), 10)
	dst = append(dst, ","+ind2+`"attrs_at_end": `...)
	dst = strconv.AppendInt(dst, int64(m.AttrsAtEnd), 10)
	dst = append(dst, ind1+"},"...)

	l := &w.Labels
	dst = append(dst, ind1+`"labels": {`...)
	dst = append(dst, ind2+`"birth_volume": `...)
	dst = appendJSONString(dst, l.BirthVolume)
	dst = append(dst, ","+ind2+`"birth_timing": `...)
	dst = appendJSONString(dst, l.BirthTiming)
	dst = append(dst, ","+ind2+`"top_band_point": `...)
	dst = appendJSONString(dst, l.TopBandPoint)
	dst = append(dst, ","+ind2+`"interval_birth_to_top": `...)
	dst = appendJSONString(dst, l.IntervalBirthToTop)
	dst = append(dst, ","+ind2+`"interval_top_to_end": `...)
	dst = appendJSONString(dst, l.IntervalTopToEnd)
	dst = append(dst, ","+ind2+`"active_pct_growth": `...)
	dst = appendJSONString(dst, l.ActivePctGrowth)
	dst = append(dst, ","+ind2+`"active_pct_pup": `...)
	dst = appendJSONString(dst, l.ActivePctPUP)
	dst = append(dst, ","+ind2+`"has_vault": `...)
	dst = appendJSONBool(dst, l.HasVault)
	dst = append(dst, ","+ind2+`"active_growth_months": `...)
	dst = strconv.AppendInt(dst, int64(l.ActiveGrowthMonths), 10)
	dst = append(dst, ind1+"},"...)

	t := &w.Timeline
	dst = append(dst, ind1+`"timeline": {`...)
	dst = append(dst, ind2+`"versions": `...)
	dst = strconv.AppendInt(dst, int64(t.Versions), 10)
	dst = append(dst, ","+ind2+`"active_versions": `...)
	dst = strconv.AppendInt(dst, int64(t.ActiveVersions), 10)
	dst = append(dst, ","+ind2+`"months": `...)
	dst = strconv.AppendInt(dst, int64(t.Months), 10)
	dst = append(dst, ","+ind2+`"active_months": `...)
	dst = strconv.AppendInt(dst, int64(t.ActiveMonths), 10)
	dst = append(dst, ","+ind2+`"longest_dormancy": `...)
	dst = strconv.AppendInt(dst, int64(t.LongestDormancy), 10)
	dst = append(dst, ind1+"}"...)

	return append(dst, "\n}\n"...)
}

// appendCorpusStatsWire renders the corpusStatsWire body, byte-identical
// to json.MarshalIndent plus a trailing newline.
func appendCorpusStatsWire(dst []byte, w *corpusStatsWire) []byte {
	dst = append(dst, '{')
	dst = append(dst, ind1+`"schema_version": `...)
	dst = strconv.AppendInt(dst, int64(w.SchemaVersion), 10)
	dst = append(dst, ","+ind1+`"projects": `...)
	dst = strconv.AppendInt(dst, int64(w.Projects), 10)
	dst = append(dst, ","+ind1+`"analyzed": `...)
	dst = strconv.AppendInt(dst, int64(w.Analyzed), 10)
	dst = append(dst, ","+ind1+`"patterns": `...)
	if len(w.Patterns) == 0 {
		dst = append(dst, "[]"...)
	} else {
		dst = append(dst, '[')
		for i := range w.Patterns {
			if i > 0 {
				dst = append(dst, ',')
			}
			p := &w.Patterns[i]
			dst = append(dst, ind2+"{"...)
			dst = append(dst, ind3+`"pattern": `...)
			dst = appendJSONString(dst, p.Pattern)
			dst = append(dst, ","+ind3+`"family": `...)
			dst = appendJSONString(dst, p.Family)
			dst = append(dst, ","+ind3+`"count": `...)
			dst = strconv.AppendInt(dst, int64(p.Count), 10)
			dst = append(dst, ind2+"}"...)
		}
		dst = append(dst, ind1+"]"...)
	}
	return append(dst, "\n}\n"...)
}

// The patterns document renders from pieces, so the live aggregate
// index (aggregate.go) can cache one section per pattern group and join
// them: the document head, each group's head, its members' array
// elements, its tail, and the document tail. appendCorpusPatternsWire
// composes the same pieces over a whole corpusPatternsWire, which the
// reflection tests pin.

// appendCorpusPatternsWire renders the corpusPatternsWire body,
// byte-identical to json.MarshalIndent plus a trailing newline.
func appendCorpusPatternsWire(dst []byte, w *corpusPatternsWire) []byte {
	dst = appendPatternsHead(dst, w.SchemaVersion)
	for i := range w.Groups {
		if i > 0 {
			dst = append(dst, ',')
		}
		g := &w.Groups[i]
		dst = appendPatternGroupHead(dst, g.Pattern, g.Family, g.Count)
		for j := range g.Projects {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendProjectRefWire(dst, g.Projects[j].Name, g.Projects[j].ID)
		}
		dst = appendPatternGroupTail(dst, len(g.Projects))
	}
	return appendPatternsTail(dst, len(w.Groups))
}

// appendPatternsHead renders the patterns document up to and including
// the opening bracket of its groups array.
func appendPatternsHead(dst []byte, schemaVersion int) []byte {
	dst = append(dst, '{')
	dst = append(dst, ind1+`"schema_version": `...)
	dst = strconv.AppendInt(dst, int64(schemaVersion), 10)
	return append(dst, ","+ind1+`"groups": [`...)
}

// appendPatternsTail closes a patterns document holding groups groups.
func appendPatternsTail(dst []byte, groups int) []byte {
	if groups == 0 {
		return append(dst, "]\n}\n"...)
	}
	return append(dst, ind1+"]\n}\n"...)
}

// appendPatternGroupHead renders one group object up to and including
// the opening bracket of its projects array.
func appendPatternGroupHead(dst []byte, pattern, family string, count int) []byte {
	dst = append(dst, ind2+"{"...)
	dst = append(dst, ind3+`"pattern": `...)
	dst = appendJSONString(dst, pattern)
	dst = append(dst, ","+ind3+`"family": `...)
	dst = appendJSONString(dst, family)
	dst = append(dst, ","+ind3+`"count": `...)
	dst = strconv.AppendInt(dst, int64(count), 10)
	return append(dst, ","+ind3+`"projects": [`...)
}

// appendPatternGroupTail closes a group whose projects array holds n
// elements.
func appendPatternGroupTail(dst []byte, n int) []byte {
	if n == 0 {
		return append(dst, "]"+ind2+"}"...)
	}
	return append(dst, ind3+"]"+ind2+"}"...)
}

// appendProjectRefWire renders one element of a group's projects array
// (without the separating comma).
func appendProjectRefWire(dst []byte, name, id string) []byte {
	dst = append(dst, ind4+"{"...)
	dst = append(dst, ind5+`"name": `...)
	dst = appendJSONString(dst, name)
	dst = append(dst, ","+ind5+`"id": `...)
	dst = appendJSONString(dst, id)
	return append(dst, ind4+"}"...)
}

// appendBatchLineWire renders one compact batch NDJSON result line plus
// the terminating newline, byte-identical to json.Marshal of the same
// value (omitempty fields included only when set).
func appendBatchLineWire(dst []byte, w *batchLineWire) []byte {
	dst = append(dst, `{"line":`...)
	dst = strconv.AppendInt(dst, int64(w.Line), 10)
	dst = append(dst, `,"status":`...)
	dst = appendJSONString(dst, w.Status)
	if w.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = appendJSONString(dst, w.ID)
	}
	if w.Project != "" {
		dst = append(dst, `,"project":`...)
		dst = appendJSONString(dst, w.Project)
	}
	if w.Pattern != "" {
		dst = append(dst, `,"pattern":`...)
		dst = appendJSONString(dst, w.Pattern)
	}
	if w.Cache != "" {
		dst = append(dst, `,"cache":`...)
		dst = appendJSONString(dst, w.Cache)
	}
	if w.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, w.Error)
	}
	return append(dst, '}', '\n')
}

// appendBatchSummaryWire renders the compact batch summary line plus the
// terminating newline, byte-identical to json.Marshal.
func appendBatchSummaryWire(dst []byte, w *batchSummaryWire) []byte {
	dst = append(dst, `{"status":`...)
	dst = appendJSONString(dst, w.Status)
	dst = append(dst, `,"lines":`...)
	dst = strconv.AppendInt(dst, int64(w.Lines), 10)
	dst = append(dst, `,"ok":`...)
	dst = strconv.AppendInt(dst, int64(w.OK), 10)
	dst = append(dst, `,"errors":`...)
	dst = strconv.AppendInt(dst, int64(w.Errors), 10)
	return append(dst, '}', '\n')
}
