package pipeline

import (
	"reflect"
	"testing"

	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/synth"
)

// TestCodecRoundTrip encodes and decodes the full analysis of every
// project of a calibrated corpus and requires deep equality — the cache
// must be invisible, down to nil-vs-empty slices and time locations.
func TestCodecRoundTrip(t *testing.T) {
	c, err := synth.PaperCorpus(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Projects {
		h, err := history.FromRepo(p.Repo)
		if err != nil {
			t.Fatalf("%s: %v", p.Repo.Name, err)
		}
		in := &CachedResult{
			Fingerprint: Fingerprint(p.Repo),
			Project:     p.Repo.Name,
			History:     h,
			Measures:    metrics.Compute(h),
		}
		out, err := DecodeResult(EncodeResult(in))
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Repo.Name, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%s: round trip not identical:\n in: %+v\nout: %+v",
				p.Repo.Name, in, out)
		}
	}
}

// TestCodecRejectsCorruption truncates and mangles a valid entry at every
// offset; the decoder must return an error (never panic, never succeed on
// trailing garbage).
func TestCodecRejectsCorruption(t *testing.T) {
	c, err := synth.PaperCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Projects[0]
	h, err := history.FromRepo(p.Repo)
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeResult(&CachedResult{
		Fingerprint: Fingerprint(p.Repo),
		Project:     p.Repo.Name,
		History:     h,
		Measures:    metrics.Compute(h),
	})

	if _, err := DecodeResult(data); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	if _, err := DecodeResult(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := DecodeResult([]byte("{broken json}")); err == nil {
		t.Error("non-magic input accepted")
	}
	if _, err := DecodeResult(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	step := len(data)/200 + 1
	for n := 0; n < len(data); n += step {
		if _, err := DecodeResult(data[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", n, len(data))
		}
	}
}
