package pipeline

import (
	"bytes"
	"testing"
	"time"

	"schemaevo/internal/synth"
	"schemaevo/internal/vcs"
)

// TestRepoCodecRoundTrip pins that EncodeRepo/DecodeRepo preserve every
// field the analysis consumes — in particular that the content fingerprint
// of the decoded repo equals the original's, which is what makes persisted
// source snapshots re-analyzable under the same ID.
func TestRepoCodecRoundTrip(t *testing.T) {
	c, err := synth.RandomCorpus(8, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Projects {
		data := EncodeRepo(p.Repo)
		got, err := DecodeRepo(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Name, err)
		}
		if Fingerprint(got) != Fingerprint(p.Repo) {
			t.Fatalf("%s: fingerprint changed across the codec round trip", p.Name)
		}
		if !bytes.Equal(EncodeRepo(got), data) {
			t.Fatalf("%s: re-encoding the decoded repo changed the bytes", p.Name)
		}
	}
}

// TestEncodeRepoDeterministic pins that a snapshot's files are written in
// sorted-path order: equal repos must encode to equal bytes, whatever
// order their file maps iterate in.
func TestEncodeRepoDeterministic(t *testing.T) {
	r := fingerprintRepo(8) // three files per commit
	want := EncodeRepo(r)
	for i := 0; i < 20; i++ {
		if !bytes.Equal(EncodeRepo(r), want) {
			t.Fatalf("encode %d differs from the first", i)
		}
	}
}

// TestRepoCodecEdgeCases exercises nil-ness preservation and awkward
// commits: nil Files, empty Files, deletions, zoned times.
func TestRepoCodecEdgeCases(t *testing.T) {
	zone := time.FixedZone("", 5*3600+1800)
	r := &vcs.Repo{
		Name: "edge",
		Commits: []vcs.Commit{
			{ID: "c0", Time: time.Unix(1e9, 42).In(zone), Files: map[string]string{"schema.sql": "CREATE TABLE t (a INT);"}},
			{ID: "c1", Time: time.Unix(2e9, 0).UTC(), Message: "drop", Deleted: []string{"schema.sql"}, SrcLines: 7},
			{ID: "c2", Time: time.Unix(3e9, 0).UTC(), Files: map[string]string{}},
			{ID: "c3", Time: time.Unix(4e9, 0).UTC()},
		},
	}
	got, err := DecodeRepo(EncodeRepo(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Commits[0].Files == nil || len(got.Commits[0].Files) != 1 {
		t.Fatalf("commit 0 files lost: %#v", got.Commits[0].Files)
	}
	if !got.Commits[0].Time.Equal(r.Commits[0].Time) {
		t.Fatalf("commit 0 time = %v, want %v", got.Commits[0].Time, r.Commits[0].Time)
	}
	if _, off := got.Commits[0].Time.Zone(); off != 5*3600+1800 {
		t.Fatalf("commit 0 zone offset = %d, want %d", off, 5*3600+1800)
	}
	if got.Commits[1].Deleted == nil || got.Commits[1].Deleted[0] != "schema.sql" || got.Commits[1].SrcLines != 7 {
		t.Fatalf("commit 1 mangled: %#v", got.Commits[1])
	}
	if got.Commits[2].Files == nil || len(got.Commits[2].Files) != 0 {
		t.Fatalf("commit 2 empty-map nil-ness lost: %#v", got.Commits[2].Files)
	}
	if got.Commits[3].Files != nil || got.Commits[3].Deleted != nil {
		t.Fatalf("commit 3 nil-ness lost: %#v", got.Commits[3])
	}
}

// TestDecodeRepoRejectsGarbage pins the decoder's failure modes:
// truncation, trailing bytes, wrong magic and wrong version all error
// instead of returning a half-decoded repo.
func TestDecodeRepoRejectsGarbage(t *testing.T) {
	good := EncodeRepo(&vcs.Repo{Name: "g", Commits: []vcs.Commit{{ID: "c", Time: time.Unix(1e9, 0).UTC()}}})
	if _, err := DecodeRepo(good[:len(good)-3]); err == nil {
		t.Fatal("truncated bytes decoded")
	}
	if _, err := DecodeRepo(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing garbage decoded")
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := DecodeRepo(bad); err == nil {
		t.Fatal("wrong magic decoded")
	}
	bad = append([]byte(nil), good...)
	bad[4] ^= 0xff // version field
	if _, err := DecodeRepo(bad); err == nil {
		t.Fatal("wrong version decoded")
	}
	if _, err := DecodeRepo(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := DecodeRepo(validEntryBytes(t)); err == nil {
		t.Fatal("a result decoded as a snapshot")
	}
	if _, err := DecodeResult(good); err == nil {
		t.Fatal("a snapshot decoded as a result")
	}

	// Crafted snapshots with a sound frame: each must be refused, never
	// panic, index out of bounds or overallocate.
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"stream-truncated", truncatedSnapshot(good)},
		{"huge-count", hugeCountSnapshot()},
		{"count-exceeds-element-bound", overCountSnapshot()},
		{"arena-ref-out-of-bounds", arenaRefSnapshot()},
		{"nonzero-reserved-byte", withHeaderByte(good, 31, 1)},
		{"nonzero-tag", withHeaderByte(good, 24, 1)},
	} {
		if _, err := DecodeRepo(tc.data); err == nil {
			t.Errorf("%s: crafted snapshot accepted", tc.name)
		}
	}
}
