package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The inputs in testdata are small artifacts of one fixed-seed run:
// potemkind -space 10.5.0.0/28 -shards 2 -seed 3 -scenario tiny.json
// with -eventlog, -trace-out, -epoch-log (its first 24 epochs),
// -snapshot-out, -checkpoints (two, cut to a few pages) and
// -scorecard-out; card-seed4.json is the same campaign at seed 4, and
// stats.json that run's -json stats. testdata/golden holds what the
// analyze, scorecard, tracetool and ckpt commands that inspect replaced
// printed for the same arguments, and the files they wrote: inspect
// must print the same bytes. The trace goldens are inspect's own, from
// a trace whose IDs are unique across the run's two shards; its Chrome
// rendering equals the file the engine once wrote live for that run.

// goldenCases are the subcommand invocations pinned by a golden, with
// the file each writes, if any.
var goldenCases = []struct {
	name, out string
	args      []string
}{
	{"events", "", []string{"events", "events.jsonl"}},
	{"events-chains", "", []string{"events", "-chains", "events.jsonl"}},
	{"events-csv", "OUT.csv", []string{"events", "-csv", "OUT.csv", "events.jsonl"}},
	{"snapshot", "", []string{"snapshot", "snapshot.json"}},
	{"scorecard", "", []string{"scorecard", "card.json"}},
	{"scorecard-two", "", []string{"scorecard", "card.json", "card-seed4.json"}},
	{"scorecard-json", "", []string{"scorecard", "-json", "card.json"}},
	{"scorecard-merge", "", []string{"scorecard", "-merge", "-json", "card.json", "card.json"}},
	{"trace", "", []string{"trace", "trace.jsonl"}},
	{"trace-top2-csv", "OUT.csv", []string{"trace", "-top", "2", "-csv", "OUT.csv", "trace.jsonl"}},
	{"trace-chrome", "OUT.json", []string{"trace", "-chrome", "OUT.json", "trace.jsonl"}},
	{"epochs", "", []string{"epochs", "epochs.jsonl"}},
	{"epochs-top3-csv", "OUT.csv", []string{"epochs", "-top", "3", "-csv", "OUT.csv", "epochs.jsonl"}},
	{"ckpt-info", "", []string{"ckpt", "info", "a.ckpt"}},
	{"ckpt-dump", "", []string{"ckpt", "dump", "a.ckpt", "1"}},
	{"ckpt-diff", "", []string{"ckpt", "diff", "a.ckpt", "b.ckpt"}},
}

// inTestdata copies the testdata inputs into a fresh directory and makes
// it the working directory, so inputs and outputs go by the relative
// names the goldens print.
func inTestdata(t *testing.T) {
	t.Helper()
	src, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// inspect runs one invocation in process.
func inspect(args []string, stdin []byte) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, stdio{bytes.NewReader(stdin), &out, &errb})
	return code, out.String(), errb.String()
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGolden: every pinned invocation prints, and writes, the golden's
// bytes.
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			wantOut := readGolden(t, tc.name+".txt")
			var wantFile []byte
			if tc.out != "" {
				wantFile = readGolden(t, tc.name+"."+tc.out)
			}
			inTestdata(t)
			code, stdout, stderr := inspect(tc.args, nil)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if stdout != string(wantOut) {
				t.Errorf("stdout differs from golden:\n got: %q\nwant: %q", stdout, wantOut)
			}
			if tc.out == "" {
				return
			}
			got, err := os.ReadFile(tc.out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantFile) {
				t.Errorf("%s differs from golden:\n got: %q\nwant: %q", tc.out, got, wantFile)
			}
		})
	}
}

// TestStdin: a subcommand whose FILE is optional reads stdin instead,
// and prints what it prints for the file.
func TestStdin(t *testing.T) {
	for _, tc := range []struct{ cmd, input, golden string }{
		{"events", "events.jsonl", "events.txt"},
		{"snapshot", "snapshot.json", "snapshot.txt"},
		{"trace", "trace.jsonl", "trace.txt"},
		{"epochs", "epochs.jsonl", "epochs.txt"},
	} {
		in, err := os.ReadFile(filepath.Join("testdata", tc.input))
		if err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := inspect([]string{tc.cmd}, in)
		if code != 0 {
			t.Fatalf("%s from stdin: exit %d: %s", tc.cmd, code, stderr)
		}
		if want := readGolden(t, tc.golden); stdout != string(want) {
			t.Errorf("%s from stdin differs from golden %s:\n%s", tc.cmd, tc.golden, stdout)
		}
	}
}

// TestSnapshotRejectsStats: the Stats that potemkind -json prints has
// no field a Snapshot knows, so decoding it leniently renders zeros;
// inspect snapshot refuses it instead.
func TestSnapshotRejectsStats(t *testing.T) {
	code, stdout, stderr := inspect([]string{"snapshot", filepath.Join("testdata", "stats.json")}, nil)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stdout %q)", code, stdout)
	}
	if stdout != "" {
		t.Errorf("rendered a report from a Stats file:\n%s", stdout)
	}
	if want := `inspect snapshot: not a snapshot: json: unknown field "Now"`; !strings.Contains(stderr, want) {
		t.Errorf("stderr = %q, want it to contain %q", stderr, want)
	}
}

// TestErrors: a malformed command line exits 2, a bad input 1, and both
// say why on stderr, never on stdout.
func TestErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{nil, 2, "usage: inspect"},
		{[]string{"analyze"}, 2, "usage: inspect"},
		{[]string{"events", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"scorecard"}, 2, "scorecard needs at least one FILE"},
		{[]string{"ckpt", "dump", "a.ckpt"}, 2, "inspect ckpt {info FILE"},
		{[]string{"ckpt", "dump", "a.ckpt", "7"}, 1, "inspect ckpt: page 7 not in delta (have [0 1 12 24]...)"},
		{[]string{"ckpt", "info", "card.json"}, 1, "inspect ckpt: card.json: vmm: not a checkpoint"},
		{[]string{"scorecard", "-merge", "card.json", "card-seed4.json"}, 1, "inspect scorecard: "},
		{[]string{"trace", "missing.jsonl"}, 1, "inspect trace: open missing.jsonl: no such file or directory"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			inTestdata(t)
			code, stdout, stderr := inspect(tc.args, nil)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr = %q, want it to contain %q", stderr, tc.want)
			}
			if stdout != "" {
				t.Errorf("stdout = %q, want nothing", stdout)
			}
		})
	}
}
