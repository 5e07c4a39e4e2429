package schemaevo

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun executes every runnable example and checks for the
// output each one promises — the examples are documentation, and
// documentation that stops compiling or crashing should fail the build.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples spawn go run; skipped with -short")
	}
	cases := []struct {
		dir  string
		want string
	}{
		{"./examples/quickstart", "Radical Sign"},
		{"./examples/migrations", "final schema"},
		{"./examples/patternmining", "Pattern distribution"},
		{"./examples/predictor", "most likely pattern"},
		{"./examples/impact", "BROKEN"},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.TrimPrefix(c.dir, "./examples/"), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", c.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("go run %s: %v\n%s", c.dir, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("%s output lacks %q:\n%s", c.dir, c.want, out)
			}
		})
	}
}
