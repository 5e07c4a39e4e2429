package sqlddl_test

import (
	"reflect"
	"strings"
	"testing"

	"schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
)

// TestRenderBackslashRoundTrip: string values holding a backslash (a
// default, a column comment, a CHECK literal) survive Render and a
// re-parse under every profile. The source spells each backslash as the
// profile reads it, doubled where a backslash escapes (MySQL and the
// generic union), and so must the rendering.
func TestRenderBackslashRoundTrip(t *testing.T) {
	const src = `CREATE TABLE t (a text DEFAULT 'C:\' COMMENT 'x\y', CHECK (a <> 'D:\'))`
	for _, d := range append([]sqlddl.Dialect{sqlddl.Generic}, dialect.All()...) {
		t.Run(d.Name(), func(t *testing.T) {
			prof := d.LexProfile()
			spelled := src
			if !prof.NoBackslashEscape {
				spelled = strings.ReplaceAll(src, `\`, `\\`)
			}
			first := sqlddl.ParseWith(d, spelled)
			if len(first.Errors) != 0 || len(first.Statements) != 1 {
				t.Fatalf("parse: %d statements, errors %v", len(first.Statements), first.Errors)
			}
			if got := first.Statements[0].(*sqlddl.CreateTable).Columns[0].Default; got != `'C:\'` {
				t.Fatalf("default = %s, want 'C:\\'", got)
			}
			rendered := sqlddl.Render(first.Statements[0], prof)
			second := sqlddl.ParseWith(d, rendered)
			if len(second.Errors) != 0 || len(second.Statements) != 1 {
				t.Fatalf("re-parse: %d statements, errors %v\nrendered: %s", len(second.Statements), second.Errors, rendered)
			}
			if !reflect.DeepEqual(first.Statements[0], second.Statements[0]) {
				t.Errorf("round trip changed the statement\nrendered: %s\nfirst:  %#v\nsecond: %#v",
					rendered, first.Statements[0], second.Statements[0])
			}
		})
	}
}
