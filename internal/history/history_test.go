package history

import (
	"math"
	"testing"
	"time"

	"schemaevo/internal/vcs"
)

func day(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 12, 0, 0, 0, time.UTC)
}

// demoRepo: project starts Jan 2020 (no schema), schema born Mar 2020
// with 3 attributes, grows by 2 in Jun, one type change in Jul, project
// ends Dec 2020. Lifetime: 12 months.
func demoRepo() *vcs.Repo {
	return &vcs.Repo{Name: "demo", Commits: []vcs.Commit{
		{ID: "0", Time: day(2020, 1, 10), Files: map[string]string{"main.go": "x"}, SrcLines: 100},
		{ID: "1", Time: day(2020, 3, 5), Files: map[string]string{"schema.sql": "CREATE TABLE t (a INT, b INT, c TEXT);"}, SrcLines: 10},
		{ID: "2", Time: day(2020, 6, 5), Files: map[string]string{"schema.sql": "CREATE TABLE t (a INT, b INT, c TEXT, d INT, e INT);"}, SrcLines: 30},
		{ID: "3", Time: day(2020, 7, 20), Files: map[string]string{"schema.sql": "CREATE TABLE t (a BIGINT, b INT, c TEXT, d INT, e INT);"}, SrcLines: 5},
		{ID: "4", Time: day(2020, 12, 1), Files: map[string]string{"main.go": "y"}, SrcLines: 50},
	}}
}

func TestFromRepoBasics(t *testing.T) {
	h, err := FromRepo(demoRepo())
	if err != nil {
		t.Fatal(err)
	}
	if h.Project != "demo" || h.DDLPath != "schema.sql" {
		t.Errorf("identity: %q %q", h.Project, h.DDLPath)
	}
	if h.Months() != 12 {
		t.Errorf("months = %d, want 12", h.Months())
	}
	if len(h.Versions) != 3 {
		t.Fatalf("versions = %d", len(h.Versions))
	}
	// Birth delta: 3 attributes born with table.
	if h.Versions[0].Delta.NBornWithTable != 3 {
		t.Errorf("birth delta: %+v", h.Versions[0].Delta)
	}
	if h.Versions[1].Delta.NInjected != 2 {
		t.Errorf("growth delta: %+v", h.Versions[1].Delta)
	}
	if h.Versions[2].Delta.NTypeChanged != 1 {
		t.Errorf("type delta: %+v", h.Versions[2].Delta)
	}
	if h.TotalActivity() != 6 {
		t.Errorf("total activity = %d, want 6", h.TotalActivity())
	}
	if h.ExpansionTotal != 5 || h.MaintenanceTotal != 1 {
		t.Errorf("expansion/maintenance = %d/%d", h.ExpansionTotal, h.MaintenanceTotal)
	}
}

func TestMonthlyHeartbeats(t *testing.T) {
	h, err := FromRepo(demoRepo())
	if err != nil {
		t.Fatal(err)
	}
	// Months: Jan=0 ... Dec=11. Schema events: Mar(2)=3, Jun(5)=2, Jul(6)=1.
	wantSchema := []int{0, 0, 3, 0, 0, 2, 1, 0, 0, 0, 0, 0}
	for i, w := range wantSchema {
		if h.SchemaMonthly[i] != w {
			t.Errorf("schema month %d = %d, want %d", i, h.SchemaMonthly[i], w)
		}
	}
	wantSrc := []int{100, 0, 10, 0, 0, 30, 5, 0, 0, 0, 0, 50}
	for i, w := range wantSrc {
		if h.SourceMonthly[i] != w {
			t.Errorf("src month %d = %d, want %d", i, h.SourceMonthly[i], w)
		}
	}
}

func TestCumulative(t *testing.T) {
	got := Cumulative([]int{0, 3, 0, 2, 1})
	want := []float64{0, 0.5, 0.5, 5.0 / 6.0, 1.0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("cumulative[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	zeros := Cumulative([]int{0, 0, 0})
	for i, v := range zeros {
		if v != 0 {
			t.Errorf("zero heartbeat cumulative[%d] = %g", i, v)
		}
	}
	if len(Cumulative(nil)) != 0 {
		t.Error("nil heartbeat should produce empty series")
	}
}

func TestCumulativeIsMonotone(t *testing.T) {
	h, _ := FromRepo(demoRepo())
	c := h.SchemaCumulative()
	for i := 1; i < len(c); i++ {
		if c[i] < c[i-1] {
			t.Fatalf("cumulative not monotone at %d: %v", i, c)
		}
	}
	if c[len(c)-1] != 1.0 {
		t.Errorf("cumulative must end at 1, got %g", c[len(c)-1])
	}
}

func TestSchemaDeletionVersion(t *testing.T) {
	r := &vcs.Repo{Name: "del", Commits: []vcs.Commit{
		{ID: "0", Time: day(2020, 1, 1), Files: map[string]string{"s.sql": "CREATE TABLE t (a INT, b INT);"}},
		{ID: "1", Time: day(2020, 5, 1), Deleted: []string{"s.sql"}},
		{ID: "2", Time: day(2021, 1, 1), Files: map[string]string{"main.go": "x"}},
	}}
	h, err := FromRepo(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Versions) != 2 {
		t.Fatalf("versions = %d", len(h.Versions))
	}
	if h.Versions[1].Delta.NDeletedWithTable != 2 {
		t.Errorf("deletion delta: %+v", h.Versions[1].Delta)
	}
	if h.FinalSchema().TableCount() != 0 {
		t.Errorf("final schema should be empty")
	}
}

func TestParseAnomaliesAreRecordedNotFatal(t *testing.T) {
	r := &vcs.Repo{Name: "messy", Commits: []vcs.Commit{
		{ID: "0", Time: day(2020, 1, 1), Files: map[string]string{"s.sql": "CREATE TABLE ok (a INT); CREATE TABLE bad (,,);"}},
		{ID: "1", Time: day(2021, 2, 1), Files: map[string]string{"s.sql": "CREATE TABLE ok (a INT, b INT);"}},
	}}
	h, err := FromRepo(r)
	if err != nil {
		t.Fatal(err)
	}
	if h.NoteCount() == 0 {
		t.Error("expected notes for the bad statement")
	}
	if h.TotalActivity() != 2 { // birth of ok(a) + injection of b
		t.Errorf("activity = %d", h.TotalActivity())
	}
}

func TestErrors(t *testing.T) {
	noDDL := &vcs.Repo{Name: "none", Commits: []vcs.Commit{
		{ID: "0", Time: day(2020, 1, 1), Files: map[string]string{"main.go": "x"}},
	}}
	if _, err := FromRepo(noDDL); err == nil {
		t.Error("repo without DDL should fail")
	}
	invalid := &vcs.Repo{Name: "empty"}
	if _, err := FromRepo(invalid); err == nil {
		t.Error("invalid repo should fail")
	}
	r := demoRepo()
	if _, err := ParseVersions(r, "nope.sql"); err == nil {
		t.Error("missing file should fail")
	}
}

func TestSnapshotSemanticsRebuildFromScratch(t *testing.T) {
	// Version 2 drops table a entirely and adds b: the diff must see both.
	r := &vcs.Repo{Name: "swap", Commits: []vcs.Commit{
		{ID: "0", Time: day(2020, 1, 1), Files: map[string]string{"s.sql": "CREATE TABLE a (x INT);"}},
		{ID: "1", Time: day(2021, 6, 1), Files: map[string]string{"s.sql": "CREATE TABLE b (y INT, z INT);"}},
	}}
	h, err := FromRepo(r)
	if err != nil {
		t.Fatal(err)
	}
	d := h.Versions[1].Delta
	if d.NBornWithTable != 2 || d.NDeletedWithTable != 1 {
		t.Errorf("swap delta: %+v", d)
	}
}

func TestSummarize(t *testing.T) {
	h, err := FromRepo(demoRepo())
	if err != nil {
		t.Fatal(err)
	}
	s := h.Summarize()
	if s.Versions != 3 || s.ActiveVersions != 3 {
		t.Errorf("versions: %+v", s)
	}
	if s.Months != 12 || s.ActiveMonths != 3 {
		t.Errorf("months: %+v", s)
	}
	// Active months 2, 5, 6: dormancy runs are months 3-4 (2 months).
	if s.LongestDormancy != 2 {
		t.Errorf("dormancy = %d", s.LongestDormancy)
	}
	if s.MeanChangePerActiveMonth != 2 { // 6 attrs over 3 active months
		t.Errorf("mean change = %v", s.MeanChangePerActiveMonth)
	}
	if s.FirstChange.Month() != 3 || s.LastChange.Month() != 7 {
		t.Errorf("change bounds: %v .. %v", s.FirstChange, s.LastChange)
	}
	if s.String() == "" {
		t.Error("empty render")
	}
}

func TestSummarizeZeroActivity(t *testing.T) {
	h := &History{Project: "quiet", SchemaMonthly: make([]int, 20)}
	s := h.Summarize()
	if s.ActiveMonths != 0 || s.MeanChangePerActiveMonth != 0 || s.LongestDormancy != 0 {
		t.Errorf("summary: %+v", s)
	}
}

func TestSizeSeriesAndAttrsMonthly(t *testing.T) {
	h, err := FromRepo(demoRepo())
	if err != nil {
		t.Fatal(err)
	}
	sizes := h.SizeSeries()
	if len(sizes) != 3 {
		t.Fatalf("size points = %d", len(sizes))
	}
	if sizes[0].Attrs != 3 || sizes[1].Attrs != 5 || sizes[2].Attrs != 5 {
		t.Errorf("attr sizes: %+v", sizes)
	}
	if sizes[0].Tables != 1 {
		t.Errorf("tables: %+v", sizes[0])
	}
	monthly := h.AttrsMonthly()
	want := []int{0, 0, 3, 3, 3, 5, 5, 5, 5, 5, 5, 5}
	if len(monthly) != len(want) {
		t.Fatalf("monthly = %v", monthly)
	}
	for i, w := range want {
		if monthly[i] != w {
			t.Errorf("month %d = %d, want %d", i, monthly[i], w)
		}
	}
	empty := &History{SchemaMonthly: nil}
	if got := empty.AttrsMonthly(); len(got) != 0 {
		t.Errorf("empty monthly = %v", got)
	}
}

// TestAssembleOutOfSpanTimestamp is the regression test for the
// month-index guard: a parsed version timestamped before the project's
// first commit or after its last must become a recorded anomaly (an
// AnomalyStmt note plus clamped heartbeat activity), never a panic with a
// heartbeat index out of range.
func TestAssembleOutOfSpanTimestamp(t *testing.T) {
	r := demoRepo() // span Jan..Dec 2020, 12 months
	parsed, err := ParseVersions(r, "schema.sql")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		time      time.Time
		wantMonth int
	}{
		{"before-start", day(2019, 6, 1), 0},
		{"after-end", day(2021, 4, 1), 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			skewed := append([]ParsedVersion(nil), parsed...)
			skewed[len(skewed)-1].Time = tc.time

			h := Assemble(r, "schema.sql", skewed) // must not panic
			if got := h.Months(); got != 12 {
				t.Fatalf("months = %d, want 12", got)
			}
			// The type change (1 attribute) lands in the clamped month
			// instead of Jul (month 6).
			if h.SchemaMonthly[6] != 0 {
				t.Errorf("month 6 still has activity %d after skew", h.SchemaMonthly[6])
			}
			base := 0
			if tc.wantMonth == 0 {
				base = 0 // Jan has no schema activity in the demo repo
			}
			if h.SchemaMonthly[tc.wantMonth] != base+1 {
				t.Errorf("clamped month %d = %d, want %d", tc.wantMonth, h.SchemaMonthly[tc.wantMonth], base+1)
			}
			if h.TotalActivity() != 6 {
				t.Errorf("total activity = %d, want 6 (no activity may be lost)", h.TotalActivity())
			}

			anoms := h.SpanAnomalies()
			if len(anoms) != 1 {
				t.Fatalf("span anomalies = %v, want exactly 1", anoms)
			}
			last := h.Versions[len(h.Versions)-1]
			found := false
			for _, n := range last.Notes {
				if n.Stmt == AnomalyStmt {
					found = true
				}
			}
			if !found {
				t.Errorf("skewed version carries no AnomalyStmt note: %+v", last.Notes)
			}
		})
	}

	// A clean history reports no span anomalies.
	h := Assemble(r, "schema.sql", parsed)
	if got := h.SpanAnomalies(); len(got) != 0 {
		t.Errorf("clean history has span anomalies: %v", got)
	}
}
