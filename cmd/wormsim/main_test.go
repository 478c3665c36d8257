package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
)

// TestMain doubles as the command: with WORMSIM_TEST_MAIN set, this test
// binary runs main on its own arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("WORMSIM_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wormsim runs the command on a small, fast outbreak plus extra flags
// and returns its stdout.
func wormsim(t *testing.T, extra ...string) []byte {
	t.Helper()
	args := append([]string{"-pop", "65536", "-initial", "100", "-scanrate", "2000", "-duration", "20s", "-seed", "3"}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WORMSIM_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("wormsim %q: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// count reads the number pattern's one group captures from the report,
// e.g. from "  leaked packets        85 (caused 0 outside infections)".
func count(t *testing.T, out []byte, pattern string) int {
	t.Helper()
	m := regexp.MustCompile(pattern).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no %q in the report:\n%s", pattern, out)
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWormsimIsDeterministic: two runs at the same seed print the same
// bytes.
func TestWormsimIsDeterministic(t *testing.T) {
	a, b := wormsim(t), wormsim(t)
	if !bytes.Equal(a, b) {
		t.Errorf("two runs at seed 3 differ:\n%s\n---\n%s", a, b)
	}
}

// TestWormsimContainment: drop-all lets no packet out; internal-reflect
// turns the captured worm's scans into internal reflections and infects
// nobody outside.
func TestWormsimContainment(t *testing.T) {
	const (
		leaked      = `leaked packets\s+(\d+)`
		outside     = `caused (\d+) outside infections`
		reflections = `internal reflections\s+(\d+)`
	)
	if n := count(t, wormsim(t, "-policy", "drop-all"), leaked); n != 0 {
		t.Errorf("drop-all leaked %d packets", n)
	}
	out := wormsim(t, "-policy", "internal-reflect")
	if n := count(t, out, reflections); n == 0 {
		t.Errorf("internal-reflect made no internal reflections:\n%s", out)
	}
	if n := count(t, out, outside); n != 0 {
		t.Errorf("internal-reflect caused %d outside infections", n)
	}
}
