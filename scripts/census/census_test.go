package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a module whose product is cmd/app; its allow-list keeps
// tensor.Kept.
const fixture = "testdata/fixture"

// fixtureUnreached is what the fixture's product reaches nothing of: an
// export only its package's test calls, an interface method nothing calls
// with the one implementation of it, and a function declared on arm64 only.
var fixtureUnreached = []string{
	"shapes.ArmUnused",
	"shapes.OnlyTested",
	"shapes.Shape.Perimeter",
	"shapes.Square.Perimeter",
}

// runCensus runs the tool on the module at dir with the allow-list text and
// returns its exit code and output.
func runCensus(t *testing.T, dir, allow string) (int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := run(dir, path, false, &out)
	return code, out.String()
}

// allowing is the fixture's allow-list with extra lines appended.
func allowing(t *testing.T, extra ...string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(fixture, "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range extra {
		b = append(b, k+"  listed by the test\n"...)
	}
	return string(b)
}

// reported lists the subjects the output names as unlisted and unreached.
func reported(out string) []string {
	var keys []string
	for _, line := range strings.Split(out, "\n") {
		if _, rest, ok := strings.Cut(line, ": "); ok && strings.HasSuffix(rest, "with a reason") {
			keys = append(keys, strings.Fields(rest)[0])
		}
	}
	return keys
}

func TestReportsUnreachedIdentifiers(t *testing.T) {
	code, out := runCensus(t, fixture, allowing(t))
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if got := reported(out); strings.Join(got, " ") != strings.Join(fixtureUnreached, " ") {
		t.Fatalf("reported %v, want %v; output:\n%s", got, fixtureUnreached, out)
	}
	// Square.Area is reached through Shape.Area alone, helper from an
	// unreached function's body, ArmName from an arm64-only file.
	for _, k := range []string{"shapes.Square.Area", "shapes.Shape.Area", "shapes.helper", "shapes.ArmName", "tensor.Kept"} {
		if strings.Contains(out, " "+k+" ") {
			t.Fatalf("%s reported; output:\n%s", k, out)
		}
	}
}

func TestPassesWhenEveryUnreachedIsListed(t *testing.T) {
	code, out := runCensus(t, fixture, allowing(t, fixtureUnreached...))
	if code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "5 unreached, each on allow.txt") {
		t.Fatalf("summary line missing; output:\n%s", out)
	}
}

func TestFailsOnStaleAllowEntries(t *testing.T) {
	for _, tc := range []struct{ key, want string }{
		{"tensor.New", "tensor.New is reached by product code now"},
		{"tensor.Matrix.MatMulInto", "tensor.Matrix.MatMulInto is reached by product code now"},
		{"tensor.Gone", "tensor.Gone is not declared any more"},
	} {
		code, out := runCensus(t, fixture, allowing(t, append(fixtureUnreached, tc.key)...))
		if code != 1 || !strings.Contains(out, tc.want) {
			t.Fatalf("%s: exit %d, want 1 with %q; output:\n%s", tc.key, code, tc.want, out)
		}
	}
}

// TestFailsOnAllocatingTwinAddedBack adds an allocating twin of the
// destination-passing kernel to a copy of the fixture: nothing calls it, so
// the census fails naming it.
func TestFailsOnAllocatingTwinAddedBack(t *testing.T) {
	dir := copyTree(t, fixture)
	twin := "package tensor\n\n// MatMul returns m · b.\nfunc (m *Matrix) MatMul(b *Matrix) *Matrix { return m.MatMulInto(b, New(m.Rows, b.Cols)) }\n"
	if err := os.WriteFile(filepath.Join(dir, "internal", "tensor", "twin.go"), []byte(twin), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runCensus(t, dir, allowing(t, fixtureUnreached...))
	if code != 1 || strings.Join(reported(out), " ") != "tensor.Matrix.MatMul" {
		t.Fatalf("exit %d, want 1 naming tensor.Matrix.MatMul only; output:\n%s", code, out)
	}
}

func TestRefusesAllowLinesWithoutReason(t *testing.T) {
	for _, line := range []string{"tensor.Kept\n", "tensor.Kept \t\n"} {
		code, out := runCensus(t, fixture, line)
		if code != 2 || !strings.Contains(out, ": tensor.Kept has no reason") {
			t.Fatalf("%q: exit %d, want 2; output:\n%s", line, code, out)
		}
	}
}

// TestAcceptsTabSeparatedAllowLines reads an allow-list whose reasons follow
// a tab, the separator -list prints.
func TestAcceptsTabSeparatedAllowLines(t *testing.T) {
	var allow strings.Builder
	for _, k := range append([]string{"tensor.Kept"}, fixtureUnreached...) {
		allow.WriteString(k + "\tlisted by the test\n")
	}
	code, out := runCensus(t, fixture, allow.String())
	if code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
}

// copyTree copies the directory tree at src into a fresh temporary
// directory and returns it.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
