package sqlddl

import (
	"fmt"
	"strings"
	"testing"
)

// largeDump builds a realistic n-table dump for throughput benchmarks.
func largeDump(n int) string {
	var sb strings.Builder
	sb.WriteString("SET NAMES utf8;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `CREATE TABLE table_%d (
  id BIGINT NOT NULL AUTO_INCREMENT,
  name VARCHAR(255) NOT NULL DEFAULT '',
  payload TEXT,
  amount NUMERIC(10,2) DEFAULT 0.00,
  created_at TIMESTAMP DEFAULT CURRENT_TIMESTAMP,
  ref_id INT,
  PRIMARY KEY (id),
  KEY idx_name (name),
  CONSTRAINT fk_%d FOREIGN KEY (ref_id) REFERENCES table_0 (id) ON DELETE CASCADE
) ENGINE=InnoDB DEFAULT CHARSET=utf8;
`, i, i)
	}
	return sb.String()
}

// BenchmarkParseLargeDump measures parser throughput on a 300-table dump
// (the size of a large FOSS schema).
func BenchmarkParseLargeDump(b *testing.B) {
	dump := largeDump(300)
	b.SetBytes(int64(len(dump)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		script := Parse(dump)
		if len(script.Errors) != 0 {
			b.Fatalf("errors: %v", script.Errors)
		}
		if len(script.Statements) != 301 {
			b.Fatalf("statements = %d", len(script.Statements))
		}
	}
}

// BenchmarkTokenize measures raw lexer throughput.
func BenchmarkTokenize(b *testing.B) {
	dump := largeDump(100)
	b.SetBytes(int64(len(dump)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		toks := Tokenize(dump)
		if len(toks) < 1000 {
			b.Fatal("suspiciously few tokens")
		}
	}
}

// BenchmarkSplitStatements measures the token-free boundary scan, the
// part of ParseUnits every byte of every version goes through.
func BenchmarkSplitStatements(b *testing.B) {
	dump := largeDump(100)
	b.SetBytes(int64(len(dump)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stmts := SplitStatements(dump); len(stmts) != 101 {
			b.Fatalf("statements = %d", len(stmts))
		}
	}
}
