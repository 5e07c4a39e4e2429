package server

import (
	"slices"
	"strings"

	"schemaevo/internal/core"
)

// The live corpus aggregates behind GET /v1/corpus/stats and
// /v1/corpus/patterns: one membership index over the analyzed corpus
// plus every live store-backed project, grouped by assigned pattern.
// Each group keeps its members sorted by (name, ID) and caches its
// rendered section of the patterns document, so a write re-renders only
// the groups it touched (DESIGN §15).

// docOrder is the group order of both aggregate documents: the paper's
// presentation order, then Unclassified, which appears only when it has
// members.
var docOrder = append(append([]core.Pattern{}, core.AllPatterns...), core.Unclassified)

// aggEntry is one store-backed member's name and pattern: what a
// supersede or DELETE needs to find the member in its group.
type aggEntry struct {
	name string
	pat  core.Pattern
}

// indexMember is one project in a pattern group: its sort key and its
// element of the group's projects array, rendered once when it joins.
type indexMember struct {
	name, id string
	elem     []byte
}

// compareMembers orders a group by name, then ID. Names alone are not
// unique: a submitted project may reuse a corpus project's name under a
// new ID, and the document must not depend on the order members joined.
func compareMembers(a, b indexMember) int {
	if c := strings.Compare(a.name, b.name); c != 0 {
		return c
	}
	return strings.Compare(a.id, b.id)
}

// patternGroup is one pattern's members in (name, ID) order and its
// rendered section of the patterns document; a nil section is stale.
type patternGroup struct {
	members []indexMember
	section []byte
}

// renderedDoc is one lazily rendered aggregate document: the body and
// its ETag, valid while epoch still matches the index epoch. A nil body
// means not yet rendered.
type renderedDoc struct {
	epoch uint64
	body  []byte
	etag  string
}

// patternIndex is the aggregate membership. The corpus members are
// loaded once at construction; store-backed members (never corpus IDs)
// join, move and leave as commits and DELETEs land. epoch bumps on every
// membership change and versions the two rendered documents. The caller
// serializes all access.
type patternIndex struct {
	groups []patternGroup // indexed by core.Pattern: Unclassified is 0, the eight patterns 1..8
	live   map[string]aggEntry
	epoch  uint64

	stats, patterns renderedDoc
}

func newPatternIndex() patternIndex {
	return patternIndex{groups: make([]patternGroup, len(docOrder)), live: map[string]aggEntry{}}
}

// refOverhead is the length of a group element beyond its name and ID
// when neither needs escaping.
var refOverhead = len(appendProjectRefWire(nil, "", ""))

// load appends a member during the bulk load at construction, in no
// particular order; sortGroups must run before the first read. live
// marks a store-backed member.
func (x *patternIndex) load(id, name string, pat core.Pattern, live bool) {
	g := &x.groups[pat]
	g.members = append(g.members, indexMember{name: name, id: id})
	if live {
		x.live[id] = aggEntry{name: name, pat: pat}
	}
}

// sortGroups ends the bulk load: it orders every group once and renders
// each group's elements into one shared buffer, rather than one
// allocation per member.
func (x *patternIndex) sortGroups() {
	for i := range x.groups {
		g := &x.groups[i]
		slices.SortFunc(g.members, compareMembers)
		size := 0
		for j := range g.members {
			size += len(g.members[j].name) + len(g.members[j].id) + refOverhead
		}
		// Escaping can outgrow the estimate; elements sliced before a
		// reallocation keep the old, equally immutable, array alive.
		buf := make([]byte, 0, size)
		for j := range g.members {
			m := &g.members[j]
			start := len(buf)
			buf = appendProjectRefWire(buf, m.name, m.id)
			m.elem = buf[start:len(buf):len(buf)]
		}
	}
}

// join makes store-backed id a member of pat's group under name, moving
// it if it was already a member elsewhere. A re-put of an unchanged
// member changes nothing.
func (x *patternIndex) join(id, name string, pat core.Pattern) {
	e := aggEntry{name: name, pat: pat}
	if old, ok := x.live[id]; ok {
		if old == e {
			return
		}
		x.leave(id)
	}
	x.live[id] = e
	g := &x.groups[pat]
	m := indexMember{name: name, id: id, elem: appendProjectRefWire(nil, name, id)}
	i, _ := slices.BinarySearchFunc(g.members, m, compareMembers)
	g.members = slices.Insert(g.members, i, m)
	g.section = nil
	x.epoch++
}

// leave removes store-backed id from its group, if it is a member.
func (x *patternIndex) leave(id string) {
	old, ok := x.live[id]
	if !ok {
		return
	}
	delete(x.live, id)
	g := &x.groups[old.pat]
	if i, found := slices.BinarySearchFunc(g.members, indexMember{name: old.name, id: id}, compareMembers); found {
		g.members = slices.Delete(g.members, i, i+1)
	}
	g.section = nil
	x.epoch++
}

// emitted reports whether pat's group appears in the documents.
func (x *patternIndex) emitted(pat core.Pattern) bool {
	return pat != core.Unclassified || len(x.groups[pat].members) > 0
}

// statsDoc returns the stats document, re-rendered from the group sizes
// when the epoch moved. corpusProjects counts every corpus project,
// analyzed or not.
func (x *patternIndex) statsDoc(corpusProjects int) renderEntry {
	if x.stats.body == nil || x.stats.epoch != x.epoch {
		doc := corpusStatsWire{
			SchemaVersion: APISchemaVersion,
			Projects:      corpusProjects + len(x.live),
			Patterns:      make([]patternCountWire, 0, len(docOrder)),
		}
		for _, pat := range docOrder {
			if !x.emitted(pat) {
				continue
			}
			n := len(x.groups[pat].members)
			doc.Analyzed += n
			doc.Patterns = append(doc.Patterns, patternCountWire{
				Pattern: pat.String(),
				Family:  core.FamilyOf(pat).String(),
				Count:   n,
			})
		}
		body := appendCorpusStatsWire(nil, &doc)
		x.stats = renderedDoc{epoch: x.epoch, body: body, etag: etagFor(body)}
	}
	return renderEntry{body: x.stats.body, etag: x.stats.etag}
}

// patternsDoc returns the patterns document. When the epoch moved it
// re-renders only the stale group sections, then joins the document
// head, the sections and the document tail into a fresh body.
func (x *patternIndex) patternsDoc() renderEntry {
	if x.patterns.body == nil || x.patterns.epoch != x.epoch {
		head := appendPatternsHead(nil, APISchemaVersion)
		size, groups := len(head), 0
		for _, pat := range docOrder {
			if !x.emitted(pat) {
				continue
			}
			g := &x.groups[pat]
			if g.section == nil {
				g.section = g.render(pat)
			}
			size += len(g.section) + 1
			groups++
		}
		body := append(make([]byte, 0, size+len(ind1+"]\n}\n")), head...)
		for _, pat := range docOrder {
			if !x.emitted(pat) {
				continue
			}
			if len(body) > len(head) {
				body = append(body, ',')
			}
			body = append(body, x.groups[pat].section...)
		}
		body = appendPatternsTail(body, groups)
		x.patterns = renderedDoc{epoch: x.epoch, body: body, etag: etagFor(body)}
	}
	return renderEntry{body: x.patterns.body, etag: x.patterns.etag}
}

// render renders the group's section of the patterns document from its
// members' pre-rendered elements.
func (g *patternGroup) render(pat core.Pattern) []byte {
	size := 128 // the group's head and tail
	for i := range g.members {
		size += len(g.members[i].elem) + 1
	}
	dst := appendPatternGroupHead(make([]byte, 0, size), pat.String(), core.FamilyOf(pat).String(), len(g.members))
	for i := range g.members {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, g.members[i].elem...)
	}
	return appendPatternGroupTail(dst, len(g.members))
}
