package main

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"

	"potemkin"
)

// parseOptions runs potemkind's flag handling over args.
func parseOptions(t *testing.T, args ...string) (potemkin.Options, []string) {
	t.Helper()
	fs := flag.NewFlagSet("potemkind", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f.options(fs)
}

// TestFlagProblems pins every rule of the collect-all flag check, one
// row each, and the order problems are reported in when several apply.
func TestFlagProblems(t *testing.T) {
	for _, tc := range []struct {
		rule string
		args string
		want []string
	}{
		{"clean single-process run", "", nil},
		{"clean coordinator", "-coordinator 127.0.0.1:0 -shards 2", nil},
		{"clean scenario", "-scenario multistage -space 10.5.0.0/22 -shards 2 -scorecard-out card.json", nil},
		{"one feed", "-pcap a.pcap -listen 127.0.0.1:4754",
			[]string{"-pcap and -listen are mutually exclusive"}},
		{"wire capture needs the wire", "-wire-pcap live.pcap",
			[]string{"-wire-pcap requires -listen (it captures the live wire feed)"}},
		{"one cluster role", "-coordinator A -worker B -shards 2",
			[]string{"-coordinator and -worker are mutually exclusive"}},
		{"no cluster wire", "-worker A -listen 127.0.0.1:4754",
			[]string{"cluster mode does not support -listen (wire arrivals defeat conservative lookahead)"}},
		{"coordinator shards", "-coordinator A",
			[]string{"-coordinator requires -shards >= 2 (got 1)"}},
		{"coordinator workers", "-coordinator A -shards 2 -workers 0",
			[]string{"-workers must be >= 1 (got 0)"}},
		{"coordinator snapshot", "-coordinator A -shards 2 -snapshot-out snap.json", nil},
		{"worker profiling", "-worker A -debug-addr 127.0.0.1:0", nil},
		{"worker output", "-worker A -json",
			[]string{"-json is a coordinator flag; the worker ships its output over the cluster protocol"}},
		{"worker files", "-worker A -capture dir -checkpoints dir", nil},
		{"cluster-only sinks", "-coordinator A -shards 2 -capture dir",
			[]string{"-capture is a worker flag; each worker writes its own shards' files"}},
		{"progress interval", "-interval 0",
			[]string{"-interval must be positive (got 0s)"}},
		{"scorecard needs a campaign", "-scorecard-out card.json",
			[]string{"-scorecard-out requires -scenario (the scorecard scores a campaign run)"}},
		{"scenario owns the feed", "-scenario multistage -rate 5",
			[]string{"-rate conflicts with -scenario (the scenario defines the feed and the guest)"}},
		{"policy name", "-policy bogus",
			[]string{`unknown policy "bogus" (want open, drop-all, reflect-source, or internal-reflect)`}},
		{"guest name", "-guest bogus",
			[]string{`unknown guest "bogus" (want winxp, sqlserver, or linux)`}},
		{"scenario loads", "-scenario nonexistent.json",
			[]string{`scenario: "nonexistent.json" is neither a builtin ([fingerprint multistage p2p]) nor a readable file`}},
		{"profile loads", "-profile missing.json",
			[]string{"open missing.json: no such file or directory"}},
		{"Options.Validate", "-shards 8",
			[]string{"potemkin: GatewayShards needs at least one server per shard (4 servers, 8 shards)"}},
		{"Options.Validate in cluster mode", "-worker A -servers -1",
			[]string{"potemkin: negative server count"}},
		{"every problem at once", "-pcap a -listen b -policy bogus -guest bogus -servers -1 -worker A -json -capture dir",
			[]string{
				"-pcap and -listen are mutually exclusive",
				"cluster mode does not support -listen (wire arrivals defeat conservative lookahead)",
				"-pcap is a coordinator flag; the worker ships its output over the cluster protocol",
				"-json is a coordinator flag; the worker ships its output over the cluster protocol",
				`unknown policy "bogus" (want open, drop-all, reflect-source, or internal-reflect)`,
				`unknown guest "bogus" (want winxp, sqlserver, or linux)`,
				"potemkin: negative server count",
			}},
	} {
		t.Run(tc.rule, func(t *testing.T) {
			_, got := parseOptions(t, strings.Fields(tc.args)...)
			if !slices.Equal(got, tc.want) {
				t.Errorf("potemkind %s:\n got %q\nwant %q", tc.args, got, tc.want)
			}
		})
	}
}

// TestClusterRefusals: every refusal left for a cluster role fires. A
// worker writes none of the run's merged outputs (the coordinator
// does), and the coordinator writes no shard's files: a worker takes
// -capture and -checkpoints and writes its own shards'.
func TestClusterRefusals(t *testing.T) {
	for _, name := range []string{"pcap", "json", "eventlog", "trace-out", "snapshot-out", "epoch-log", "scorecard-out"} {
		args := []string{"-worker", "A", "-" + name}
		if name != "json" {
			args = append(args, "out")
		}
		_, got := parseOptions(t, args...)
		if want := "-" + name + " is a coordinator flag; the worker ships its output over the cluster protocol"; !slices.Contains(got, want) {
			t.Errorf("potemkind %q:\n got %q\nwant %q among them", args, got, want)
		}
	}
	for _, name := range []string{"capture", "checkpoints"} {
		args := []string{"-worker", "A", "-" + name, "dir"}
		if opts, got := parseOptions(t, args...); got != nil || opts.CaptureDir+opts.CheckpointDir != "dir" {
			t.Errorf("potemkind %q: problems %q, capture %q, checkpoints %q", args, got, opts.CaptureDir, opts.CheckpointDir)
		}
		args = []string{"-coordinator", "A", "-shards", "2", "-" + name, "dir"}
		_, got := parseOptions(t, args...)
		if want := []string{"-" + name + " is a worker flag; each worker writes its own shards' files"}; !slices.Equal(got, want) {
			t.Errorf("potemkind %q:\n got %q\nwant %q", args, got, want)
		}
	}
}

// TestFlagOptions: the flags translate to the facade's Options that
// every mode runs on.
func TestFlagOptions(t *testing.T) {
	opts, problems := parseOptions(t, "-idle", "0", "-policy", "drop-all", "-guest", "linux",
		"-shards", "2", "-parallel", "-listen", "127.0.0.1:0", "-listen-for", "1s", "-debug-addr", "127.0.0.1:0")
	if problems != nil {
		t.Fatal(problems)
	}
	if opts.IdleTimeout >= 0 || opts.Policy != potemkin.DropAll || opts.Guest != potemkin.GuestLinuxServer ||
		opts.GatewayShards != 2 || !opts.Parallel || !opts.Metrics {
		t.Errorf("options = %+v", opts)
	}
	if w := opts.Wire; w == nil || w.Addr != "127.0.0.1:0" || w.ListenFor.Seconds() != 1 || w.QueueLen != 4096 {
		t.Errorf("wire = %+v", w)
	}
	if _, err := opts.EngineConfig(); err != nil {
		t.Errorf("EngineConfig: %v", err)
	}
}
