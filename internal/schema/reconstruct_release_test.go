package schema

import (
	"testing"

	"schemaevo/internal/sqlddl"
)

// TestReleaseDropsSourceViews pins that a released reconstructor keeps no
// unit of the last source it parsed: every slot of both unit buffers, up
// to capacity, is zero, so the pool never pins a caller's source text.
func TestReleaseDropsSourceViews(t *testing.T) {
	rc := NewReconstructor()
	rc.Build("CREATE TABLE a (id INT);\n-- note\nCREATE TABLE b (id INT);")
	rc.Build("CREATE TABLE a (id INT);\nCREATE TABLE b (id INT);\nCREATE TABLE c (id INT);")
	units, prevUnits := rc.units, rc.prevUnits
	ReleaseReconstructor(rc)
	for name, buf := range map[string][]sqlddl.Unit{"units": units, "prevUnits": prevUnits} {
		if cap(buf) == 0 {
			t.Fatalf("%s never grew; the test needs parsed units", name)
		}
		for i, u := range buf[:cap(buf)] {
			if u.Text != "" || u.Stmt != nil || u.Err != nil {
				t.Errorf("%s[%d] still holds %q after release", name, i, u.Text)
			}
		}
	}
}
