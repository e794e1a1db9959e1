package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchStream = `goos: linux
cpu: Test CPU @ 2.0GHz
BenchmarkFoo-8   	      10	   1000000 ns/op	    2048 B/op	      12 allocs/op
BenchmarkFoo-8   	      10	   1100000 ns/op	    2048 B/op	      12 allocs/op
PASS
`

func runWith(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEmitsDocument(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	code, _, stderr := runWith(t, benchStream, "-o", out, "-note", "test run")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"BenchmarkFoo-8"`, `"ns/op"`, `"note": "test run"`, `"min": 1000000`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("document missing %s:\n%s", want, raw)
		}
	}
}

// The -against gate must fail loudly — one clear line, nonzero exit —
// when the baseline is missing, malformed, or carries no summaries,
// instead of silently passing against nothing.
func TestAgainstUnusableBaseline(t *testing.T) {
	cases := []struct {
		name, path, wantErr string
	}{
		{"missing", filepath.Join(t.TempDir(), "nope.json"), "baseline"},
		{"malformed", "", "malformed JSON"},
		{"null-doc", "", "no benchmark summaries"},
		{"empty-summary", "", "no benchmark summaries"},
	}
	cases[1].path = writeFile(t, "bad.json", "{not json")
	cases[2].path = writeFile(t, "null.json", "null")
	cases[3].path = writeFile(t, "empty.json", `{"summary": {}}`)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runWith(t, benchStream, "-against", tc.path)
			if code == 0 {
				t.Fatalf("exit 0 against unusable baseline %s", tc.path)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.wantErr)
			}
			if n := strings.Count(strings.TrimRight(stderr, "\n"), "\n"); n != 0 {
				t.Errorf("want a one-line error, got %d lines: %q", n+1, stderr)
			}
		})
	}
}

func TestAgainstDetectsRegression(t *testing.T) {
	// Baseline where BenchmarkFoo-8 was 2x faster than the stream.
	base := writeFile(t, "base.json", `{"summary": {"BenchmarkFoo-8": {"ns/op": {"count": 1, "min": 400000, "mean": 400000, "max": 400000}}}}`)
	code, stdout, _ := runWith(t, benchStream, "-against", base)
	if code == 0 {
		t.Fatal("regression not detected")
	}
	if !strings.Contains(stdout, "REGRESSION") {
		t.Errorf("output does not flag the regression:\n%s", stdout)
	}
}

func TestAgainstPassesWithinTolerance(t *testing.T) {
	base := writeFile(t, "base.json", `{"summary": {"BenchmarkFoo-8": {"ns/op": {"count": 1, "min": 990000, "mean": 990000, "max": 990000}}}}`)
	code, stdout, stderr := runWith(t, benchStream, "-against", base)
	if code != 0 {
		t.Fatalf("exit %d within tolerance; stdout:\n%s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "no regressions") {
		t.Errorf("output missing pass line:\n%s", stdout)
	}
}

// A run key the baseline lacks — here the same bench at another
// GOMAXPROCS — must fail the gate instead of passing uncompared.
func TestAgainstFailsOnKeyNotInBaseline(t *testing.T) {
	base := writeFile(t, "base.json", `{"summary": {"BenchmarkFoo-1": {"ns/op": {"count": 1, "min": 1000000, "mean": 1000000, "max": 1000000}}}}`)
	code, stdout, _ := runWith(t, benchStream, "-against", base)
	if code == 0 {
		t.Fatalf("exit 0 with a run key missing from the baseline:\n%s", stdout)
	}
	if !strings.Contains(stdout, "BenchmarkFoo-8") || !strings.Contains(stdout, "not in baseline") {
		t.Errorf("output does not name the missing key:\n%s", stdout)
	}
	if strings.Contains(stdout, "no regressions") {
		t.Errorf("output claims no regressions:\n%s", stdout)
	}
}

// A baseline key at a procs count the run measured, but missing from
// the run — a deleted or renamed bench — must fail the gate; baseline
// keys at other procs counts are another run's to cover.
func TestAgainstFailsOnBaselineKeyMissingFromRun(t *testing.T) {
	stat := `{"ns/op": {"count": 1, "min": 1000000, "mean": 1000000, "max": 1000000}}`
	base := writeFile(t, "base.json", `{"summary": {"BenchmarkFoo-8": `+stat+
		`, "BenchmarkGone-8": `+stat+`, "BenchmarkGone-1": `+stat+`}}`)
	code, stdout, _ := runWith(t, benchStream, "-against", base)
	if code == 0 {
		t.Fatalf("exit 0 with a baseline key missing from the run:\n%s", stdout)
	}
	if !strings.Contains(stdout, "BenchmarkGone-8") || !strings.Contains(stdout, "missing from run") {
		t.Errorf("output does not name the missing key:\n%s", stdout)
	}
	if strings.Contains(stdout, "BenchmarkGone-1") {
		t.Errorf("output holds the run to a procs count it never measured:\n%s", stdout)
	}

	// The same baseline minus the -8 key passes: -1 is not this run's.
	base = writeFile(t, "base2.json", `{"summary": {"BenchmarkFoo-8": `+stat+`, "BenchmarkGone-1": `+stat+`}}`)
	if code, stdout, _ := runWith(t, benchStream, "-against", base); code != 0 {
		t.Fatalf("exit %d with only an other-procs key absent:\n%s", code, stdout)
	}
}

// A run with no results compares nothing, so it must not pass.
func TestAgainstFailsOnEmptyRun(t *testing.T) {
	base := writeFile(t, "base.json", `{"summary": {"BenchmarkFoo-8": {"ns/op": {"count": 1, "min": 1000000, "mean": 1000000, "max": 1000000}}}}`)
	code, stdout, _ := runWith(t, "goos: linux\nPASS\n", "-against", base)
	if code == 0 || strings.Contains(stdout, "no regressions") {
		t.Fatalf("exit %d on an empty run:\n%s", code, stdout)
	}
}

func TestParseLine(t *testing.T) {
	e, ok := parseLine("BenchmarkBar-16   	     100	     52341 ns/op	  12 extra/op")
	if !ok || e.Name != "BenchmarkBar" || e.Procs != 16 || e.Runs != 100 {
		t.Fatalf("parseLine: %+v ok=%v", e, ok)
	}
	if e.Metrics["ns/op"] != 52341 || e.Metrics["extra/op"] != 12 {
		t.Errorf("metrics: %v", e.Metrics)
	}
	if _, ok := parseLine("PASS"); ok {
		t.Error("PASS line parsed as a benchmark")
	}
}
