package sqlddl

import (
	"reflect"
	"strings"
	"testing"
)

// roundTrip parses src, renders it, re-parses, and asserts the two parse
// results are deeply equal (RawStatement text aside).
func roundTrip(t *testing.T, src string) {
	t.Helper()
	first, err := ParseStatement(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	rendered := Render(first, LexProfile{})
	second, err := ParseStatement(rendered)
	if err != nil {
		t.Fatalf("re-parse of %q failed: %v\nrendered: %s", src, err, rendered)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("round trip changed the statement\nsource:   %s\nrendered: %s\nfirst:  %#v\nsecond: %#v",
			src, rendered, first, second)
	}
}

func TestRenderRoundTripCreateTable(t *testing.T) {
	cases := []string{
		`CREATE TABLE t (a INT)`,
		`CREATE TABLE IF NOT EXISTS t (a INT NOT NULL, b TEXT DEFAULT 'x')`,
		`CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(30) UNIQUE)`,
		`CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))`,
		`CREATE TABLE t (a INT, CONSTRAINT fk FOREIGN KEY (a) REFERENCES o (id) ON DELETE CASCADE)`,
		`CREATE TABLE t (a INT, UNIQUE (a))`,
		`CREATE TABLE t (a INT REFERENCES o (id) ON UPDATE RESTRICT)`,
		`CREATE TEMPORARY TABLE scratch (x INT)`,
		`CREATE TABLE "Weird Name" ("A Col" INT)`,
	}
	for _, src := range cases {
		roundTrip(t, src)
	}
}

func TestRenderRoundTripAlterTable(t *testing.T) {
	cases := []string{
		`ALTER TABLE t ADD COLUMN a INT`,
		`ALTER TABLE t ADD COLUMN a INT NOT NULL DEFAULT 5, DROP COLUMN b`,
		`ALTER TABLE t MODIFY COLUMN a BIGINT NOT NULL`,
		`ALTER TABLE t RENAME COLUMN a TO b`,
		`ALTER TABLE t CHANGE COLUMN a b VARCHAR(10)`,
		`ALTER TABLE t ADD CONSTRAINT ck PRIMARY KEY (a)`,
		`ALTER TABLE t DROP PRIMARY KEY`,
		`ALTER TABLE t DROP CONSTRAINT fk_x`,
		`ALTER TABLE t RENAME TO u`,
		`ALTER TABLE t ALTER COLUMN a SET DEFAULT 'v'`,
		`ALTER TABLE t ALTER COLUMN a DROP DEFAULT`,
		`ALTER TABLE t ALTER COLUMN a SET NOT NULL`,
		`ALTER TABLE t ALTER COLUMN a DROP NOT NULL`,
	}
	for _, src := range cases {
		roundTrip(t, src)
	}
}

func TestRenderRoundTripDropAndIndex(t *testing.T) {
	cases := []string{
		`DROP TABLE t`,
		`DROP TABLE IF EXISTS a, b CASCADE`,
		`CREATE UNIQUE INDEX idx ON t (a, b)`,
		`CREATE INDEX ON t (a)`,
		`DROP INDEX idx`,
		`DROP INDEX idx ON t`,
	}
	for _, src := range cases {
		roundTrip(t, src)
	}
}

func TestRenderScript(t *testing.T) {
	script := Parse(`CREATE TABLE a (x INT); DROP TABLE b;`)
	out := RenderScript(script, LexProfile{})
	if strings.Count(out, ";") != 2 {
		t.Errorf("script render: %q", out)
	}
	re := Parse(out)
	if len(re.Errors) != 0 || len(re.Statements) != 2 {
		t.Errorf("rendered script does not re-parse: %v", re.Errors)
	}
}

func TestRenderRawStatement(t *testing.T) {
	raw := &RawStatement{Verb: "INSERT", Text: "INSERT INTO t VALUES (1)"}
	if Render(raw, LexProfile{}) != raw.Text {
		t.Error("raw statements must render verbatim")
	}
}

func TestRenderCommentEscaping(t *testing.T) {
	stmt, err := ParseStatement(`CREATE TABLE t (a INT COMMENT 'it''s a comment')`)
	if err != nil {
		t.Fatal(err)
	}
	rendered := Render(stmt, LexProfile{})
	if !strings.Contains(rendered, "it''s") {
		t.Errorf("comment not escaped: %s", rendered)
	}
	roundTrip(t, `CREATE TABLE t (a INT COMMENT 'plain')`)
}
