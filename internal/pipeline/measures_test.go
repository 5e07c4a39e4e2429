package pipeline

import (
	"encoding/binary"
	"fmt"
	"testing"

	"schemaevo/internal/corpus"
	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/synth"
)

// measuresParity decodes data with DecodeMeasures and DecodeResult. It
// reports whether DecodeResult accepted it, and how the two disagree: ""
// when both reject it or both accept it with the same measures.
func measuresParity(data []byte) (accepted bool, disagreement string) {
	m, merr := DecodeMeasures(data)
	r, rerr := DecodeResult(data)
	switch {
	case (merr == nil) != (rerr == nil):
		return rerr == nil, fmt.Sprintf("DecodeMeasures error %v, DecodeResult error %v", merr, rerr)
	case rerr == nil && fmt.Sprintf("%#v", m) != fmt.Sprintf("%#v", r.Measures):
		return true, fmt.Sprintf("DecodeMeasures read %#v, DecodeResult %#v", m, r.Measures)
	}
	return rerr == nil, ""
}

// reframed returns an image of stream (header included) and arena with a
// well-formed header, so a cut stream or arena reaches the field decoders
// instead of failing the header check.
func reframed(stream, arena []byte) []byte {
	img := append(append([]byte(nil), stream...), arena...)
	binary.LittleEndian.PutUint64(img[8:16], uint64(len(stream)))
	binary.LittleEndian.PutUint64(img[16:24], uint64(len(arena)))
	return img
}

// cutLimit bounds the encodings TestDecodeMeasuresDifferential cuts at
// every offset: the cuts of one encoding cost time quadratic in its size.
const cutLimit = 3 << 10

// TestDecodeMeasuresDifferential encodes the analyses of a random and a
// paper corpus; every encoding must read back the analyzed measures. Each
// encoding of at most cutLimit bytes (about a fifth of them) is then
// cut at every offset: as a plain prefix (which the header's bounds
// reject), as a field stream cut short in front of the intact arena, and
// as an intact stream in front of a cut arena. DecodeMeasures must accept
// exactly what DecodeResult accepts and read the same measures.
func TestDecodeMeasuresDifferential(t *testing.T) {
	random, err := synth.RandomCorpus(6, 41)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := synth.PaperCorpus(2)
	if err != nil {
		t.Fatal(err)
	}
	encoded, cut := 0, 0
	for _, c := range []*corpus.Corpus{random, paper} {
		for _, p := range c.Projects {
			h, err := history.FromRepo(p.Repo)
			if err != nil {
				continue // no DDL history to encode
			}
			m := metrics.Compute(h)
			data := EncodeResult(&CachedResult{Fingerprint: Fingerprint(p.Repo), Project: p.Repo.Name, History: h, Measures: m})
			encoded++
			got, err := DecodeMeasures(data)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", m) {
				t.Fatalf("%s: DecodeMeasures read %#v, want %#v", p.Name, got, m)
			}
			if _, why := measuresParity(data); why != "" {
				t.Fatalf("%s: %s", p.Name, why)
			}
			if len(data) > cutLimit {
				continue
			}
			cut++

			ao := int(binary.LittleEndian.Uint64(data[8:16]))
			stream, arena := data[:ao], data[ao:]
			for k := 0; k < len(data); k++ {
				if ok, why := measuresParity(data[:k]); ok || why != "" {
					t.Fatalf("%s, prefix of %d/%d bytes: accepted %v %s", p.Name, k, len(data), ok, why)
				}
			}
			for k := flatHeaderSize; k < len(stream); k++ {
				if _, why := measuresParity(reframed(stream[:k], arena)); why != "" {
					t.Fatalf("%s, stream cut at %d: %s", p.Name, k, why)
				}
			}
			for k := 0; k < len(arena); k++ {
				if _, why := measuresParity(reframed(stream, arena[:k])); why != "" {
					t.Fatalf("%s, arena cut at %d: %s", p.Name, k, why)
				}
			}
		}
	}
	if encoded < len(paper.Projects) || cut < encoded/6 {
		t.Fatalf("%d encodings checked, %d of them cut", encoded, cut)
	}
	t.Logf("%d encodings checked, %d of them cut", encoded, cut)
}
