package sqlddl

import (
	"strings"
	"testing"
)

func mustParseOne(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := ParseStatement(src)
	if err != nil {
		t.Fatalf("ParseStatement(%q): %v", src, err)
	}
	if stmt == nil {
		t.Fatalf("ParseStatement(%q): nil statement", src)
	}
	return stmt
}

func asCreate(t *testing.T, src string) *CreateTable {
	t.Helper()
	ct, ok := mustParseOne(t, src).(*CreateTable)
	if !ok {
		t.Fatalf("not a CreateTable: %q", src)
	}
	return ct
}

func asAlter(t *testing.T, src string) *AlterTable {
	t.Helper()
	at, ok := mustParseOne(t, src).(*AlterTable)
	if !ok {
		t.Fatalf("not an AlterTable: %q", src)
	}
	return at
}

func TestCreateTableBasic(t *testing.T) {
	ct := asCreate(t, `CREATE TABLE users (
		id INT NOT NULL AUTO_INCREMENT,
		name VARCHAR(255) NOT NULL,
		email VARCHAR(100) DEFAULT NULL,
		created_at TIMESTAMP DEFAULT CURRENT_TIMESTAMP,
		PRIMARY KEY (id),
		UNIQUE KEY uq_email (email)
	) ENGINE=InnoDB DEFAULT CHARSET=utf8`)
	if ct.Name != "users" {
		t.Errorf("name = %q", ct.Name)
	}
	if len(ct.Columns) != 4 {
		t.Fatalf("got %d columns: %+v", len(ct.Columns), ct.Columns)
	}
	if !ct.Columns[0].AutoIncrement || !ct.Columns[0].NotNull {
		t.Errorf("id column flags: %+v", ct.Columns[0])
	}
	if ct.Columns[1].Type != "varchar(255)" {
		t.Errorf("name type = %q", ct.Columns[1].Type)
	}
	if !ct.Columns[2].HasDefault || ct.Columns[2].Default != "NULL" {
		t.Errorf("email default = %+v", ct.Columns[2])
	}
	if len(ct.Constraints) != 2 {
		t.Fatalf("got %d constraints: %+v", len(ct.Constraints), ct.Constraints)
	}
	if ct.Constraints[0].Kind != PrimaryKeyConstraint || ct.Constraints[0].Columns[0] != "id" {
		t.Errorf("pk = %+v", ct.Constraints[0])
	}
	if ct.Constraints[1].Kind != UniqueConstraint || ct.Constraints[1].Name != "uq_email" {
		t.Errorf("unique = %+v", ct.Constraints[1])
	}
	if !strings.Contains(ct.Options, "InnoDB") {
		t.Errorf("options = %q", ct.Options)
	}
}

func TestCreateTableInlineConstraints(t *testing.T) {
	ct := asCreate(t, `CREATE TABLE orders (
		id SERIAL PRIMARY KEY,
		user_id INTEGER NOT NULL REFERENCES users(id) ON DELETE CASCADE,
		total NUMERIC(10,2) DEFAULT 0.00 CHECK (total >= 0),
		note TEXT UNIQUE
	)`)
	id := ct.Columns[0]
	if !id.PrimaryKey || !id.AutoIncrement || !id.NotNull {
		t.Errorf("serial pk column: %+v", id)
	}
	fk := ct.Columns[1].References
	if fk == nil || fk.Table != "users" || fk.Columns[0] != "id" || fk.OnDelete != "CASCADE" {
		t.Errorf("inline fk: %+v", fk)
	}
	if ct.Columns[2].Default != "0.00" {
		t.Errorf("default = %q", ct.Columns[2].Default)
	}
	if !ct.Columns[3].Unique {
		t.Errorf("unique col: %+v", ct.Columns[3])
	}
}

func TestCreateTableForeignKeyConstraint(t *testing.T) {
	ct := asCreate(t, `CREATE TABLE line_items (
		order_id INT,
		product_id INT,
		CONSTRAINT fk_order FOREIGN KEY (order_id) REFERENCES orders (id) ON DELETE CASCADE ON UPDATE RESTRICT,
		FOREIGN KEY (product_id) REFERENCES products (id)
	)`)
	if len(ct.Constraints) != 2 {
		t.Fatalf("constraints: %+v", ct.Constraints)
	}
	c0 := ct.Constraints[0]
	if c0.Name != "fk_order" || c0.Ref.Table != "orders" || c0.Ref.OnDelete != "CASCADE" || c0.Ref.OnUpdate != "RESTRICT" {
		t.Errorf("named fk: %+v ref %+v", c0, c0.Ref)
	}
	if ct.Constraints[1].Ref.Table != "products" {
		t.Errorf("anon fk: %+v", ct.Constraints[1])
	}
}

func TestCreateTablePostgresTypes(t *testing.T) {
	ct := asCreate(t, `CREATE TABLE IF NOT EXISTS evt (
		id BIGSERIAL,
		at TIMESTAMP WITH TIME ZONE NOT NULL,
		dur DOUBLE PRECISION,
		tags TEXT[],
		name CHARACTER VARYING(30) DEFAULT 'x'::character varying,
		payload JSONB
	)`)
	if !ct.IfNotExists {
		t.Error("IF NOT EXISTS not detected")
	}
	wantTypes := []string{"bigserial", "timestamp with time zone", "double precision", "text array", "character varying(30)", "jsonb"}
	for i, w := range wantTypes {
		if ct.Columns[i].Type != w {
			t.Errorf("column %d type = %q, want %q", i, ct.Columns[i].Type, w)
		}
	}
	if ct.Columns[4].Default != "'x'::character varying" {
		t.Errorf("cast default = %q", ct.Columns[4].Default)
	}
}

func TestCreateTableQuotedIdentifiers(t *testing.T) {
	ct := asCreate(t, "CREATE TABLE `My Table` (`Weird Col` INT, \"Another\" TEXT)")
	if ct.Name != "My Table" {
		t.Errorf("name = %q", ct.Name)
	}
	if ct.Columns[0].Name != "Weird Col" || ct.Columns[1].Name != "Another" {
		t.Errorf("columns: %+v", ct.Columns)
	}
}

func TestCreateTableSchemaQualified(t *testing.T) {
	ct := asCreate(t, `CREATE TABLE public.accounts (id INT)`)
	if ct.Name != "accounts" {
		t.Errorf("qualified name reduced to %q, want accounts", ct.Name)
	}
}

func TestCreateTableMySQLKeyClauses(t *testing.T) {
	ct := asCreate(t, `CREATE TABLE t (
		a INT,
		b INT,
		KEY idx_a (a),
		INDEX (b),
		FULLTEXT KEY ft (a, b)
	)`)
	if len(ct.Columns) != 2 {
		t.Fatalf("columns: %+v", ct.Columns)
	}
	if len(ct.Constraints) != 3 {
		t.Fatalf("constraints: %+v", ct.Constraints)
	}
	for _, c := range ct.Constraints {
		if c.Kind != IndexConstraint {
			t.Errorf("kind = %v", c.Kind)
		}
	}
}

func TestAlterTableAddDropColumn(t *testing.T) {
	at := asAlter(t, `ALTER TABLE users ADD COLUMN age INT DEFAULT 0, DROP COLUMN legacy`)
	if at.Name != "users" || len(at.Actions) != 2 {
		t.Fatalf("%+v", at)
	}
	if at.Actions[0].Action != AddColumn || at.Actions[0].Column.Name != "age" {
		t.Errorf("add: %+v", at.Actions[0])
	}
	if at.Actions[1].Action != DropColumn || at.Actions[1].Column.Name != "legacy" {
		t.Errorf("drop: %+v", at.Actions[1])
	}
}

func TestAlterTableAddGroupedColumns(t *testing.T) {
	at := asAlter(t, `ALTER TABLE t ADD (a INT, b TEXT, c DATE)`)
	if len(at.Actions) != 3 {
		t.Fatalf("grouped add: %+v", at.Actions)
	}
	names := []string{"a", "b", "c"}
	for i, n := range names {
		if at.Actions[i].Action != AddColumn || at.Actions[i].Column.Name != n {
			t.Errorf("action %d: %+v", i, at.Actions[i])
		}
	}
}

func TestAlterTableModifyAndChange(t *testing.T) {
	at := asAlter(t, `ALTER TABLE t MODIFY COLUMN a BIGINT NOT NULL, CHANGE old_name new_name VARCHAR(50)`)
	if at.Actions[0].Action != ModifyColumn || at.Actions[0].Column.Type != "bigint" {
		t.Errorf("modify: %+v", at.Actions[0])
	}
	ch := at.Actions[1]
	if ch.Action != RenameColumn || ch.OldName != "old_name" || ch.Column.Name != "new_name" || ch.Column.Type != "varchar(50)" {
		t.Errorf("change: %+v", ch)
	}
}

func TestAlterTablePostgresAlterColumn(t *testing.T) {
	at := asAlter(t, `ALTER TABLE t
		ALTER COLUMN a TYPE BIGINT USING a::bigint,
		ALTER COLUMN b SET DEFAULT 'x',
		ALTER COLUMN c DROP NOT NULL,
		ALTER COLUMN d SET NOT NULL`)
	if at.Actions[0].Action != ModifyColumn || at.Actions[0].Column.Type != "bigint" {
		t.Errorf("type change: %+v", at.Actions[0])
	}
	if at.Actions[1].Action != SetDefault || at.Actions[1].Column.Default != "'x'" {
		t.Errorf("set default: %+v", at.Actions[1])
	}
	if at.Actions[2].Action != SetNotNull || !at.Actions[2].Drop {
		t.Errorf("drop not null: %+v", at.Actions[2])
	}
	if at.Actions[3].Action != SetNotNull || at.Actions[3].Drop {
		t.Errorf("set not null: %+v", at.Actions[3])
	}
}

func TestAlterTableConstraints(t *testing.T) {
	at := asAlter(t, `ALTER TABLE t
		ADD CONSTRAINT fk_x FOREIGN KEY (x) REFERENCES other (id),
		ADD PRIMARY KEY (id),
		DROP PRIMARY KEY,
		DROP FOREIGN KEY fk_old,
		DROP CONSTRAINT chk_1`)
	if at.Actions[0].Action != AddTableConstraint || at.Actions[0].Constraint.Kind != ForeignKeyConstraint {
		t.Errorf("add fk: %+v", at.Actions[0])
	}
	if at.Actions[1].Constraint.Kind != PrimaryKeyConstraint {
		t.Errorf("add pk: %+v", at.Actions[1])
	}
	if at.Actions[2].Action != DropConstraint || at.Actions[2].ConstraintKind != PrimaryKeyConstraint {
		t.Errorf("drop pk: %+v", at.Actions[2])
	}
	if at.Actions[3].ConstraintName != "fk_old" {
		t.Errorf("drop fk: %+v", at.Actions[3])
	}
	if at.Actions[4].ConstraintName != "chk_1" {
		t.Errorf("drop constraint: %+v", at.Actions[4])
	}
}

func TestAlterTableRename(t *testing.T) {
	at := asAlter(t, `ALTER TABLE a RENAME TO b`)
	if at.Actions[0].Action != RenameTable || at.Actions[0].NewTableName != "b" {
		t.Errorf("rename table: %+v", at.Actions[0])
	}
	at = asAlter(t, `ALTER TABLE t RENAME COLUMN x TO y`)
	if at.Actions[0].Action != RenameColumn || at.Actions[0].OldName != "x" || at.Actions[0].Column.Name != "y" {
		t.Errorf("rename column: %+v", at.Actions[0])
	}
}

func TestAlterTableSchemaNeutralActions(t *testing.T) {
	at := asAlter(t, `ALTER TABLE t ENGINE=MyISAM, OWNER TO bob`)
	for _, a := range at.Actions {
		if a.Action != OtherAlteration {
			t.Errorf("expected OtherAlteration, got %+v", a)
		}
	}
}

func TestDropTable(t *testing.T) {
	dt, ok := mustParseOne(t, `DROP TABLE IF EXISTS a, b CASCADE`).(*DropTable)
	if !ok {
		t.Fatal("not a DropTable")
	}
	if !dt.IfExists || !dt.Cascade || len(dt.Names) != 2 || dt.Names[1] != "b" {
		t.Errorf("%+v", dt)
	}
}

func TestCreateAndDropIndex(t *testing.T) {
	ci, ok := mustParseOne(t, `CREATE UNIQUE INDEX idx_name ON users USING btree (lower(name), id)`).(*CreateIndex)
	if !ok {
		t.Fatal("not a CreateIndex")
	}
	if !ci.Unique || ci.Name != "idx_name" || ci.Table != "users" || len(ci.Columns) != 2 {
		t.Errorf("%+v", ci)
	}
	di, ok := mustParseOne(t, `DROP INDEX idx_name ON users`).(*DropIndex)
	if !ok {
		t.Fatal("not a DropIndex")
	}
	if di.Name != "idx_name" || di.Table != "users" {
		t.Errorf("%+v", di)
	}
}

func TestCreateView(t *testing.T) {
	cv, ok := mustParseOne(t, `CREATE OR REPLACE VIEW v AS SELECT * FROM t`).(*CreateView)
	if !ok {
		t.Fatal("not a CreateView")
	}
	if cv.Name != "v" {
		t.Errorf("%+v", cv)
	}
}

func TestRawStatements(t *testing.T) {
	for _, src := range []string{
		`INSERT INTO t VALUES (1, 'a')`,
		`SET NAMES utf8`,
		`USE mydb`,
		`GRANT ALL ON t TO bob`,
		`SELECT 1`,
		`UPDATE t SET a = 1`,
	} {
		raw, ok := mustParseOne(t, src).(*RawStatement)
		if !ok {
			t.Errorf("%q: expected RawStatement", src)
			continue
		}
		wantVerb := strings.ToUpper(strings.Fields(src)[0])
		if raw.Verb != wantVerb {
			t.Errorf("%q: verb %q, want %q", src, raw.Verb, wantVerb)
		}
	}
}

func TestParseErrorTolerance(t *testing.T) {
	script := Parse(`CREATE TABLE good (id INT);
CREATE TABLE bad (id INT,,,);
CREATE TABLE also_good (x TEXT);`)
	if len(script.Statements) != 2 {
		t.Fatalf("got %d statements, want 2 survivors: %+v, errors %v",
			len(script.Statements), script.Statements, script.Errors)
	}
	if len(script.Errors) != 1 {
		t.Fatalf("got %d errors, want 1: %v", len(script.Errors), script.Errors)
	}
	if script.Errors[0].Stmt != 1 {
		t.Errorf("error statement index = %d", script.Errors[0].Stmt)
	}
	if !strings.Contains(script.Errors[0].Error(), "sqlddl:") {
		t.Errorf("error string: %v", script.Errors[0])
	}
}

func TestParseWholeDump(t *testing.T) {
	script := Parse(`
-- A realistic mysqldump fragment
SET NAMES utf8;
DROP TABLE IF EXISTS wp_posts;
CREATE TABLE wp_posts (
  ID bigint(20) unsigned NOT NULL auto_increment,
  post_author bigint(20) unsigned NOT NULL default '0',
  post_date datetime NOT NULL default '0000-00-00 00:00:00',
  post_content longtext NOT NULL,
  post_title text NOT NULL,
  PRIMARY KEY  (ID),
  KEY post_name (post_author)
) ENGINE=MyISAM DEFAULT CHARSET=utf8;
INSERT INTO wp_posts VALUES (1, 0, NOW(), 'hello', 'world');
`)
	if len(script.Errors) != 0 {
		t.Fatalf("errors: %v", script.Errors)
	}
	if len(script.Statements) != 4 {
		t.Fatalf("got %d statements", len(script.Statements))
	}
	ct, ok := script.Statements[2].(*CreateTable)
	if !ok {
		t.Fatalf("statement 2: %T", script.Statements[2])
	}
	if len(ct.Columns) != 5 {
		t.Errorf("wp_posts columns: %d", len(ct.Columns))
	}
	if ct.Columns[0].Type != "bigint(20) unsigned" {
		t.Errorf("ID type = %q", ct.Columns[0].Type)
	}
}

func TestGeneratedColumns(t *testing.T) {
	ct := asCreate(t, `CREATE TABLE t (
		id INT GENERATED ALWAYS AS IDENTITY,
		full_name TEXT GENERATED ALWAYS AS (first || ' ' || last) STORED
	)`)
	if !ct.Columns[0].AutoIncrement {
		t.Errorf("identity column: %+v", ct.Columns[0])
	}
	if ct.Columns[1].Name != "full_name" {
		t.Errorf("generated column: %+v", ct.Columns[1])
	}
}

func TestEmptyInput(t *testing.T) {
	stmt, err := ParseStatement("   -- nothing\n")
	if err != nil || stmt != nil {
		t.Errorf("empty input: stmt=%v err=%v", stmt, err)
	}
	script := Parse("")
	if len(script.Statements) != 0 || len(script.Errors) != 0 {
		t.Errorf("empty script: %+v", script)
	}
}

func TestColumnPositionClauses(t *testing.T) {
	at := asAlter(t, "ALTER TABLE t ADD COLUMN a INT FIRST, ADD COLUMN b INT AFTER a, MODIFY COLUMN c TEXT AFTER b")
	if len(at.Actions) != 3 {
		t.Fatalf("actions: %+v", at.Actions)
	}
	if at.Actions[0].Column.Name != "a" || at.Actions[1].Column.Name != "b" {
		t.Errorf("positioned columns: %+v", at.Actions)
	}
}

func TestTokenAndKindStrings(t *testing.T) {
	for k := EOF; k <= Op; k++ {
		if k.String() == "" {
			t.Errorf("Kind(%d) has empty string", int(k))
		}
	}
	tok := Token{Kind: Ident, Text: "x", Off: 37}
	if s := tok.String(); !strings.Contains(s, "Ident") || !strings.Contains(s, "@37") {
		t.Errorf("token string: %q", s)
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestConstraintKindStrings(t *testing.T) {
	kinds := []ConstraintKind{PrimaryKeyConstraint, ForeignKeyConstraint,
		UniqueConstraint, CheckConstraint, IndexConstraint}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d empty", int(k))
		}
	}
	if ConstraintKind(42).String() != "CONSTRAINT" {
		t.Error("unknown constraint kind fallback")
	}
}

func TestAlterActionStrings(t *testing.T) {
	for a := AddColumn; a <= OtherAlteration; a++ {
		if a.String() == "" {
			t.Errorf("action %d empty", int(a))
		}
	}
	if AlterAction(99).String() != "ALTER" {
		t.Error("unknown action fallback")
	}
}
