package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schemaevo/internal/quantize"
)

// labelSpace renders Classify and ClassifyNearest over every combination
// of the four label fields the definitions read — birth timing, top-band
// timing, birth-to-top interval and 0–6 active growth months, impossible
// orders included (4 × 4 × 5 × 7 = 560 profiles) — one tab-separated line
// per profile.
func labelSpace() string {
	var sb strings.Builder
	for bt := quantize.TimingVP0; bt <= quantize.TimingLate; bt++ {
		for tp := quantize.TimingVP0; tp <= quantize.TimingLate; tp++ {
			for gi := quantize.GrowthZero; gi <= quantize.GrowthVeryLong; gi++ {
				for active := 0; active <= 6; active++ {
					l := quantize.Labels{
						BirthTiming: bt, TopBandPoint: tp,
						IntervalBirthToTop: gi, ActiveGrowthMonths: active,
					}
					fmt.Fprintf(&sb, "%v\t%v\t%v\t%d\t%v\t%v\n", bt, tp, gi, active, Classify(l), ClassifyNearest(l))
				}
			}
		}
	}
	return sb.String()
}

// TestLabelSpacePinned pins the classifier over the whole label space.
// testdata/labelspace.txt was recorded before the definitions moved into
// one table; a line that moves is a change to the paper's definitions or
// to the nearest-pattern rule, not a refactoring.
func TestLabelSpacePinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "labelspace.txt"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(labelSpace(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != 561 || len(gotLines) != len(wantLines) {
		t.Fatalf("label space has %d lines, pinned file %d; want 560 profiles", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("profile %d:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
}

// TestPatternTextPinned pins every name, family and prose string the
// taxonomy prints, as one digest; the strings reach the CLIs, the HTTP
// API and the reproduced tables verbatim.
func TestPatternTextPinned(t *testing.T) {
	const want = "71f14539204521cf2041ee5b14a954e13a4ca946fda160bfdd2d46e621845e96"
	h := sha256.New()
	for _, p := range append([]Pattern{Unclassified}, AllPatterns...) {
		fmt.Fprintf(h, "%d %s|%s|%s\n", int(p), p, FamilyOf(p), Describe(p))
	}
	for _, f := range append([]Family{NoFamily}, AllFamilies...) {
		fmt.Fprintf(h, "%d %s|%s\n", int(f), f, DescribeFamily(f))
	}
	fmt.Fprintf(h, "%s|%s\n", Pattern(99), Family(99))
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("pattern text digest = %s, want %s", got, want)
	}
}

// TestClassifierAllocs: classification runs once per served project and
// ParsePattern once per project on corpus load; none may allocate.
func TestClassifierAllocs(t *testing.T) {
	l := quantize.Labels{
		BirthTiming: quantize.TimingLate, TopBandPoint: quantize.TimingLate,
		IntervalBirthToTop: quantize.GrowthFair,
	}
	for name, fn := range map[string]func(){
		"Classify":        func() { Classify(l) },
		"ClassifyNearest": func() { ClassifyNearest(l) },
		"ParsePattern":    func() { ParsePattern("Smoking Funnel") },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", name, n)
		}
	}
}
