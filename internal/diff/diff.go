// Package diff detects logical-schema change between two schema versions.
//
// The unit of measurement is the paper's (§3.2): the number of affected
// attributes — born with new tables, injected into existing ones, deleted
// with removed tables, ejected from surviving ones, with their data type
// changed, or their participation in a primary/foreign key updated. The
// breakdown into expansion vs maintenance follows §6.3.
package diff

import (
	"fmt"
	"sort"
	"sync"

	"schemaevo/internal/schema"
)

// AttrChange records one affected attribute for detailed reporting.
type AttrChange struct {
	Table string
	Attr  string
	Kind  ChangeKind
}

func (a AttrChange) String() string {
	return fmt.Sprintf("%s.%s: %s", a.Table, a.Attr, a.Kind)
}

// ChangeKind classifies how an attribute was affected.
type ChangeKind int

// The attribute-level change kinds of the paper's measurement unit.
const (
	// BornWithTable: the attribute arrived as part of a newly added table.
	BornWithTable ChangeKind = iota
	// Injected: the attribute was added to a pre-existing table.
	Injected
	// DeletedWithTable: the attribute vanished because its table was dropped.
	DeletedWithTable
	// Ejected: the attribute was removed from a surviving table.
	Ejected
	// TypeChanged: the attribute's (normalized) data type changed.
	TypeChanged
	// KeyChanged: the attribute's participation in the primary key or in
	// some foreign key changed.
	KeyChanged
)

func (k ChangeKind) String() string {
	switch k {
	case BornWithTable:
		return "born-with-table"
	case Injected:
		return "injected"
	case DeletedWithTable:
		return "deleted-with-table"
	case Ejected:
		return "ejected"
	case TypeChanged:
		return "type-changed"
	case KeyChanged:
		return "key-changed"
	}
	return fmt.Sprintf("ChangeKind(%d)", int(k))
}

// Delta is the attribute-level difference between two schema versions.
type Delta struct {
	// TablesAdded and TablesDropped list affected table names.
	TablesAdded   []string
	TablesDropped []string
	// Counts per change kind.
	NBornWithTable    int
	NInjected         int
	NDeletedWithTable int
	NEjected          int
	NTypeChanged      int
	NKeyChanged       int
	// Changes carries the per-attribute detail, in deterministic order.
	Changes []AttrChange
}

// Expansion returns the attributes counted as expansion (§6.3): births
// with new tables plus injections into existing ones.
func (d *Delta) Expansion() int { return d.NBornWithTable + d.NInjected }

// Maintenance returns the attributes counted as maintenance (§6.3):
// deletions (with or without their table), data-type changes and key
// participation changes.
func (d *Delta) Maintenance() int {
	return d.NDeletedWithTable + d.NEjected + d.NTypeChanged + d.NKeyChanged
}

// Total returns the total number of affected attributes — the paper's
// unit of schema-evolution volume.
func (d *Delta) Total() int { return d.Expansion() + d.Maintenance() }

// IsZero reports whether no logical change was detected.
func (d *Delta) IsZero() bool { return d.Total() == 0 }

func (d *Delta) add(table, attr string, kind ChangeKind) {
	d.Changes = append(d.Changes, AttrChange{Table: table, Attr: attr, Kind: kind})
	switch kind {
	case BornWithTable:
		d.NBornWithTable++
	case Injected:
		d.NInjected++
	case DeletedWithTable:
		d.NDeletedWithTable++
	case Ejected:
		d.NEjected++
	case TypeChanged:
		d.NTypeChanged++
	case KeyChanged:
		d.NKeyChanged++
	}
}

// scratch holds the buffers of one diff, pooled so the hot per-version
// diff allocates only its result: the sorted table names of both sides,
// and the changes, which are collected here and copied out once at exact
// size.
type scratch struct {
	oldNames, newNames []string
	changes            []AttrChange
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Schemas computes the delta from old to new. Either argument may be nil,
// meaning the empty schema (so Schemas(nil, s) measures schema birth).
// Tables and attributes are matched by name; a rename therefore counts as
// deletion plus addition, matching snapshot-based extraction from real
// histories.
//
// Tables that are pointer-identical in both schemas — the common case
// under copy-on-write reconstruction — are skipped without comparing a
// single column. To diff a run of consecutive versions, use Sequence,
// which sorts each version's table names once rather than twice.
func Schemas(old, new *schema.Schema) *Delta {
	sc := scratchPool.Get().(*scratch)
	sc.oldNames = sortedTableNames(old, sc.oldNames[:0])
	sc.newNames = sortedTableNames(new, sc.newNames[:0])
	d := sc.diff(old, new)
	scratchPool.Put(sc)
	return d
}

// Sequence diffs consecutive versions of one history. Each version's
// sorted table names, computed when it is the new side of one pair, are
// carried into the next pair as its old side, so every version is sorted
// once. A Sequence holds pooled scratch until Close.
type Sequence struct {
	sc   *scratch
	prev *schema.Schema
}

// NewSequence starts a sequence after version first (nil for the empty
// schema before a history's first version). It returns a value, so a
// caller's sequence costs no allocation of its own.
func NewSequence(first *schema.Schema) Sequence {
	sc := scratchPool.Get().(*scratch)
	sc.oldNames = sortedTableNames(first, sc.oldNames[:0])
	return Sequence{sc: sc, prev: first}
}

// Next returns the delta from the previous version to s — the same delta
// as Schemas(previous, s) — and makes s the previous version.
func (q *Sequence) Next(s *schema.Schema) *Delta {
	sc := q.sc
	sc.newNames = sortedTableNames(s, sc.newNames[:0])
	d := sc.diff(q.prev, s)
	sc.oldNames, sc.newNames = sc.newNames, sc.oldNames
	q.prev = s
	return d
}

// Close returns the sequence's scratch to the pool; the sequence must not
// be used afterwards.
func (q *Sequence) Close() {
	scratchPool.Put(q.sc)
	q.sc, q.prev = nil, nil
}

// diff computes the delta from old to new, whose sorted table names are
// in sc.oldNames and sc.newNames.
func (sc *scratch) diff(old, new *schema.Schema) *Delta {
	d := &Delta{Changes: sc.changes[:0]}
	newNames, oldNames := sc.newNames, sc.oldNames
	for i, name := range newNames {
		if i > 0 && name == newNames[i-1] {
			continue // duplicate order entry (rename collision)
		}
		nt, _ := tableOf(new, name)
		ot, existed := tableOf(old, name)
		if !existed {
			d.TablesAdded = append(d.TablesAdded, name)
			for _, c := range nt.Columns {
				d.add(name, c.Name, BornWithTable)
			}
			continue
		}
		if ot == nt {
			continue
		}
		diffTable(d, ot, nt)
	}
	for i, name := range oldNames {
		if i > 0 && name == oldNames[i-1] {
			continue
		}
		if _, survives := tableOf(new, name); !survives {
			d.TablesDropped = append(d.TablesDropped, name)
			ot, _ := tableOf(old, name)
			for _, c := range ot.Columns {
				d.add(name, c.Name, DeletedWithTable)
			}
		}
	}
	changes := d.Changes
	d.Changes = nil
	if len(changes) > 0 {
		d.Changes = make([]AttrChange, len(changes))
		copy(d.Changes, changes)
		clear(changes) // the pooled buffer must not pin table and column names
	}
	sc.changes = changes[:0]
	return d
}

func tableOf(s *schema.Schema, name string) (*schema.Table, bool) {
	if s == nil {
		return nil, false
	}
	return s.Table(name)
}

// sortedTableNames appends s's table names to buf and sorts them; the
// result may contain duplicates when the insertion order does (callers
// skip adjacent repeats).
func sortedTableNames(s *schema.Schema, buf []string) []string {
	if s == nil {
		return buf
	}
	buf = s.AppendTableNames(buf)
	sort.Strings(buf)
	return buf
}

// diffTable diffs one surviving table. Each attribute is counted at most
// once, with data-type change taking precedence over key change when both
// apply — the paper counts affected attributes, not individual edits.
func diffTable(d *Delta, ot, nt *schema.Table) {
	oldCols := columnMap(ot)
	newCols := columnMap(nt)
	oldKeys := keyMembership(ot)
	newKeys := keyMembership(nt)

	for _, c := range nt.Columns {
		oc, existed := oldCols[c.Name]
		if !existed {
			d.add(nt.Name, c.Name, Injected)
			continue
		}
		switch {
		case oc.Type != c.Type:
			d.add(nt.Name, c.Name, TypeChanged)
		case oldKeys[c.Name] != newKeys[c.Name]:
			d.add(nt.Name, c.Name, KeyChanged)
		}
	}
	for _, c := range ot.Columns {
		if _, survives := newCols[c.Name]; !survives {
			d.add(nt.Name, c.Name, Ejected)
		}
	}
}

// keyMembership encodes each column's participation in the primary key
// and in foreign keys as a compact comparable value. A table with no keys
// yields nil (lookups on a nil map read as zero).
func keyMembership(t *schema.Table) map[string]uint8 {
	if len(t.PrimaryKey) == 0 && len(t.ForeignKeys) == 0 {
		return nil
	}
	m := make(map[string]uint8, len(t.Columns))
	for _, c := range t.PrimaryKey {
		m[c] |= 1
	}
	for _, fk := range t.ForeignKeys {
		for _, c := range fk.Columns {
			m[c] |= 2
		}
	}
	return m
}

func columnMap(t *schema.Table) map[string]*schema.Column {
	m := make(map[string]*schema.Column, len(t.Columns))
	for i := range t.Columns {
		m[t.Columns[i].Name] = &t.Columns[i]
	}
	return m
}
