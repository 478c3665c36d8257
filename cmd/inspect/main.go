// Command inspect renders the artifacts a honeyfarm run leaves behind:
// the gateway's event log, a JSON snapshot, effectiveness scorecards, a
// binding-lifecycle span trace, the engine's epoch timeline, and VM
// checkpoints.
//
// Usage:
//
//	inspect events [-chains] [-csv FILE] [FILE]
//	    incident report from an event log (potemkind -eventlog): binding
//	    statistics, compromised-VM timeline, reflection chains
//	inspect snapshot [FILE]
//	    a JSON snapshot (potemkind -snapshot-out, the /snapshot endpoint)
//	inspect scorecard [-merge] [-json] FILE...
//	    scenario scorecards (potemkind -scorecard-out); -merge unions the
//	    partitions of one run (counters add, earliest detection wins)
//	inspect trace [-top N] [-csv FILE] [-chrome FILE] [FILE]
//	    per-stage latency and the slowest bindings' critical paths from a
//	    span trace (potemkind -trace-out); -chrome converts it for Perfetto
//	inspect epochs [-top N] [-csv FILE] [FILE]
//	    shard advance, barrier wait and exchange wall time from an epoch
//	    timeline (potemkind -epoch-log), plus the N slowest epochs
//	inspect ckpt info FILE | dump FILE PAGE | diff FILE1 FILE2
//	    VM delta checkpoints (potemkind -checkpoints): summary, page hex
//	    dump, comparison
//
// Where FILE is optional, inspect reads stdin without it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"strconv"

	"potemkin"
	"potemkin/internal/analysis"
	"potemkin/internal/metrics"
	"potemkin/internal/score"
	"potemkin/internal/trace"
	"potemkin/internal/vmm"
)

// stdio is a subcommand's streams, so tests run subcommands in process.
type stdio struct {
	in  io.Reader
	out io.Writer
	err io.Writer
}

var commands = map[string]func(args []string, s stdio) error{
	"events":    events,
	"snapshot":  snapshot,
	"scorecard": scorecard,
	"trace":     traces,
	"epochs":    epochs,
	"ckpt":      ckpt,
}

const usage = "usage: inspect {events|snapshot|scorecard|trace|epochs|ckpt} [flags] [FILE...]"

// errUsage marks a malformed command line (exit status 2).
var errUsage = errors.New(usage)

func main() {
	os.Exit(run(os.Args[1:], stdio{os.Stdin, os.Stdout, os.Stderr}))
}

// run executes one subcommand and returns the exit status. It is the
// one place an error is reported.
func run(args []string, s stdio) int {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprintln(s.err, usage)
		return 2
	}
	err := commands[args[0]](args[1:], s)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		fmt.Fprintln(s.err, err)
		return 2
	default:
		fmt.Fprintf(s.err, "inspect %s: %v\n", args[0], err)
		return 1
	}
}

// parse parses a subcommand's flags; a bad flag is a usage error.
func parse(fs *flag.FlagSet, args []string, s stdio) error {
	fs.SetOutput(s.err)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	return nil
}

// input opens the file named by the subcommand's first argument, or
// stdin when there is none.
func input(fs *flag.FlagSet, s stdio) (io.ReadCloser, error) {
	if fs.NArg() == 0 {
		return io.NopCloser(s.in), nil
	}
	return os.Open(fs.Arg(0))
}

// writeCSV writes tab as CSV to path, when set, and says so.
func writeCSV(path string, tab *metrics.Table, s stdio) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tab.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "\n[csv] %s\n", path)
	return nil
}

// events reconstructs an incident from a gateway event log.
func events(args []string, s stdio) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	chains := fs.Bool("chains", false, "also dump the reflection chain edges in time order")
	csvOut := fs.String("csv", "", "write the per-address timeline table as CSV to this file")
	if err := parse(fs, args, s); err != nil {
		return err
	}
	in, err := input(fs, s)
	if err != nil {
		return err
	}
	defer in.Close()
	rep, err := analysis.Analyze(in)
	if err != nil {
		return err
	}
	rep.Render(s.out)
	if *chains {
		fmt.Fprintln(s.out, "\nreflection chains:")
		rep.DumpChains(s.out)
	}
	return writeCSV(*csvOut, rep.TimelinesTable(), s)
}

// snapshot renders a potemkin.Snapshot as a readable report. Fields it
// does not know are an error: a file of another shape (the Stats that
// potemkind -json prints, say) would otherwise render as all zeros.
func snapshot(args []string, s stdio) error {
	fs := flag.NewFlagSet("snapshot", flag.ContinueOnError)
	if err := parse(fs, args, s); err != nil {
		return err
	}
	in, err := input(fs, s)
	if err != nil {
		return err
	}
	defer in.Close()
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	var snap potemkin.Snapshot
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("not a snapshot: %v", err)
	}
	w := s.out
	fmt.Fprintf(w, "snapshot at t=%.3fs\n", snap.TSeconds)
	fmt.Fprintf(w, "  live VMs              %d (peak %d, infected %d)\n", snap.LiveVMs, snap.PeakVMs, snap.InfectedVMs)
	fmt.Fprintf(w, "  bindings live         %d (created %d, recycled %d, shed %d)\n",
		snap.BindingsLive, snap.BindingsCreated, snap.BindingsRecycled, snap.BindingsShed)
	fmt.Fprintf(w, "  pending queue depth   %d packets\n", snap.PendingQueued)
	fmt.Fprintf(w, "  inbound packets       %d (delivered %d)\n", snap.InboundPackets, snap.DeliveredToVM)
	fmt.Fprintf(w, "  spawn failures        %d (retries %d)\n", snap.SpawnFailures, snap.SpawnRetries)
	fmt.Fprintf(w, "  detector flagged      %d\n", snap.DetectedInfected)
	fmt.Fprintf(w, "  memory in use         %d MiB\n", snap.MemoryInUseBytes>>20)
	if c := snap.CloneMs; c.Count > 0 {
		fmt.Fprintf(w, "  clone latency (ms)    p50=%.1f p90=%.1f p99=%.1f max=%.1f over %d clones\n",
			c.P50, c.P90, c.P99, c.Max, c.Count)
	}
	if len(snap.StagesMs) > 0 {
		tab := metrics.NewTable("\nper-stage latency (ms)",
			"stage", "count", "mean", "p50", "p90", "p99", "max")
		for _, n := range slices.Sorted(maps.Keys(snap.StagesMs)) {
			st := snap.StagesMs[n]
			tab.AddRow(n, st.Count, st.Mean, st.P50, st.P90, st.P99, st.Max)
		}
		tab.Render(w)
	}
	if snap.OpenSpans > 0 {
		fmt.Fprintf(w, "\n  open spans            %d (bindings still live when snapped)\n", snap.OpenSpans)
	}
	return nil
}

// scorecard renders, or merges, the effectiveness scorecards of
// scenario runs. With several files and no -merge, each card renders in
// argument order; merging cards of different runs is an error.
func scorecard(args []string, s stdio) error {
	fs := flag.NewFlagSet("scorecard", flag.ContinueOnError)
	merge := fs.Bool("merge", false, "merge all cards into one (they must describe the same run)")
	jsonOut := fs.Bool("json", false, "emit deterministic JSON instead of the human rendering")
	if err := parse(fs, args, s); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("%w: scorecard needs at least one FILE", errUsage)
	}
	cards := make([]*score.Scorecard, 0, fs.NArg())
	for _, path := range fs.Args() {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var card score.Scorecard
		if err := json.Unmarshal(b, &card); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		cards = append(cards, &card)
	}
	if *merge {
		merged, err := score.Merge(cards...)
		if err != nil {
			return err
		}
		cards = []*score.Scorecard{merged}
	}
	for i, card := range cards {
		if *jsonOut {
			if err := card.WriteJSON(s.out); err != nil {
				return err
			}
			continue
		}
		if i > 0 {
			fmt.Fprintln(s.out)
		}
		card.Render(s.out)
	}
	return nil
}

// traces analyzes a binding-lifecycle span trace.
func traces(args []string, s stdio) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	top := fs.Int("top", 5, "show the critical path of the N slowest bindings")
	csvOut := fs.String("csv", "", "write the stage table as CSV to this file")
	chromeOut := fs.String("chrome", "", "convert the trace to Chrome trace-event JSON at this path")
	if err := parse(fs, args, s); err != nil {
		return err
	}
	in, err := input(fs, s)
	if err != nil {
		return err
	}
	defer in.Close()
	recs, err := trace.ReadAll(in)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return errors.New("no spans in input")
	}
	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err != nil {
			return err
		}
		cw := trace.NewChromeWriter(f)
		for _, r := range recs {
			cw.Write(r)
		}
		if err := cw.Close(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "[chrome] %s (%d spans) — open in Perfetto or chrome://tracing\n\n", *chromeOut, len(recs))
	}

	a := trace.Analyze(recs)
	fmt.Fprintf(s.out, "%d spans in %d traces (%d roots)\n\n", a.Spans, a.Traces, len(a.Roots))
	tab := a.StageTable()
	tab.Render(s.out)
	if err := writeCSV(*csvOut, tab, s); err != nil {
		return err
	}
	if slow := a.SlowestRoots("binding", *top); len(slow) > 0 {
		fmt.Fprintf(s.out, "\nslowest %d bindings (critical path):\n", len(slow))
		for _, r := range slow {
			fmt.Fprintf(s.out, "  t=%.3fs %s\n", float64(r.StartNS)/1e9, trace.FormatPath(a.CriticalPath(r)))
		}
	}
	return nil
}

// epochs summarizes an epoch timeline's per-phase wall-clock time and
// lists the slowest epochs.
func epochs(args []string, s stdio) error {
	fs := flag.NewFlagSet("epochs", flag.ContinueOnError)
	top := fs.Int("top", 5, "show the N slowest epochs")
	csvOut := fs.String("csv", "", "write the slowest-epochs table as CSV to this file")
	if err := parse(fs, args, s); err != nil {
		return err
	}
	in, err := input(fs, s)
	if err != nil {
		return err
	}
	defer in.Close()
	samples, err := metrics.ReadEpochs(in)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return errors.New("no epoch samples in input")
	}

	shards := 0
	var simNS int64
	for _, smp := range samples {
		shards = max(shards, len(smp.AdvanceNS))
		if d := smp.EndNS - smp.StartNS; d > 0 {
			simNS += d
		}
	}
	agg := metrics.AggregateEpochs(samples)
	w := s.out
	fmt.Fprintf(w, "%d epochs, %d shards, %.3fs simulated\n", len(samples), shards, float64(simNS)/1e9)
	fmt.Fprintf(w, "exchange: %d msgs, %d bytes\n", agg.TotalMsgs, agg.TotalBytes)
	fmt.Fprintf(w, "ingress:  %d frames (per-epoch %s)\n\n", agg.TotalFrames, agg.Ingress.Summary())
	fmt.Fprintf(w, "phase wall-clock (ms):\n")
	fmt.Fprintf(w, "  epoch wall    %s\n", agg.Wall.Summary())
	fmt.Fprintf(w, "  shard advance %s\n", agg.Advance.Summary())
	fmt.Fprintf(w, "  barrier wait  %s (p50=%.3fms p99=%.3fms)\n",
		agg.BarrierWait.Summary(), agg.BarrierWait.Quantile(0.50), agg.BarrierWait.Quantile(0.99))
	fmt.Fprintf(w, "  exchange      %s\n\n", agg.Exchange.Summary())

	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return samples[order[a]].WallNS > samples[order[b]].WallNS
	})
	n := min(*top, len(order))
	tab := metrics.NewTable(fmt.Sprintf("slowest %d epochs", n),
		"epoch", "t_ms", "wall_ms", "adv_max_ms", "barrier_max_ms", "exch_ms", "msgs", "bytes", "ingress", "slowest")
	for _, i := range order[:n] {
		smp := samples[i]
		var advMax, waitMax int64
		for _, ns := range smp.AdvanceNS {
			advMax = max(advMax, ns)
		}
		for _, ns := range smp.BarrierWaitNS {
			waitMax = max(waitMax, ns)
		}
		tab.AddRow(smp.Seq, float64(smp.StartNS)/1e6, float64(smp.WallNS)/1e6,
			float64(advMax)/1e6, float64(waitMax)/1e6, float64(smp.ExchangeNS)/1e6,
			smp.ExchangeMsgs, smp.ExchangeBytes, smp.IngressFrames, smp.SlowestShard)
	}
	tab.Render(w)
	return writeCSV(*csvOut, tab, s)
}

// ckpt inspects and compares VM delta checkpoints.
func ckpt(args []string, s stdio) error {
	ckUsage := fmt.Errorf("%w\n       inspect ckpt {info FILE | dump FILE PAGE | diff FILE1 FILE2}", errUsage)
	if len(args) < 2 {
		return ckUsage
	}
	switch {
	case args[0] == "info":
		return ckptInfo(args[1], s.out)
	case args[0] == "dump" && len(args) >= 3:
		return ckptDump(args[1], args[2], s.out)
	case args[0] == "diff" && len(args) >= 3:
		return ckptDiff(args[1], args[2], s.out)
	}
	return ckUsage
}

func loadCheckpoint(path string) (*vmm.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck, err := vmm.ReadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return ck, nil
}

func ckptInfo(path string, w io.Writer) error {
	ck, err := loadCheckpoint(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "image:       %s\n", ck.ImageName)
	fmt.Fprintf(w, "address:     %s\n", ck.IP)
	fmt.Fprintf(w, "delta pages: %d (%d KiB)\n", len(ck.Pages), len(ck.Pages)*4)
	fmt.Fprintf(w, "total delta: %d KiB\n", ck.Bytes()>>10)
	pages := slices.Sorted(maps.Keys(ck.Pages))
	fmt.Fprintf(w, "pages:      ")
	for i, vpn := range pages {
		if i == 16 {
			fmt.Fprintf(w, " … (+%d more)", len(pages)-16)
			break
		}
		fmt.Fprintf(w, " %d", vpn)
	}
	fmt.Fprintln(w)
	return nil
}

// ckptDump hex-dumps one captured page, eliding all-zero rows.
func ckptDump(path, page string, w io.Writer) error {
	ck, err := loadCheckpoint(path)
	if err != nil {
		return err
	}
	vpn, err := strconv.ParseUint(page, 10, 64)
	if err != nil {
		return fmt.Errorf("bad page %q", page)
	}
	content, ok := ck.Pages[vpn]
	if !ok {
		pages := slices.Sorted(maps.Keys(ck.Pages))
		return fmt.Errorf("page %d not in delta (have %v...)", vpn, pages[:min(8, len(pages))])
	}
	var zero [16]byte
	for off := 0; off < len(content); off += 16 {
		row := content[off : off+16]
		if bytes.Equal(row, zero[:]) {
			continue
		}
		fmt.Fprintf(w, "%08x ", off)
		for _, b := range row {
			fmt.Fprintf(w, " %02x", b)
		}
		fmt.Fprintf(w, "  |")
		for _, b := range row {
			if b >= 0x20 && b < 0x7f {
				fmt.Fprintf(w, "%c", b)
			} else {
				fmt.Fprint(w, ".")
			}
		}
		fmt.Fprintln(w, "|")
	}
	return nil
}

// ckptDiff reports the pages present in or differing between two
// checkpoints.
func ckptDiff(pathA, pathB string, w io.Writer) error {
	a, err := loadCheckpoint(pathA)
	if err != nil {
		return err
	}
	b, err := loadCheckpoint(pathB)
	if err != nil {
		return err
	}
	onlyA, onlyB, differ, same := 0, 0, 0, 0
	for _, vpn := range slices.Sorted(maps.Keys(a.Pages)) {
		cb, ok := b.Pages[vpn]
		switch {
		case !ok:
			onlyA++
		case !bytes.Equal(a.Pages[vpn], cb):
			differ++
			fmt.Fprintf(w, "page %d differs\n", vpn)
		default:
			same++
		}
	}
	for vpn := range b.Pages {
		if _, ok := a.Pages[vpn]; !ok {
			onlyB++
		}
	}
	fmt.Fprintf(w, "pages: %d same, %d differ, %d only in %s, %d only in %s\n",
		same, differ, onlyA, pathA, onlyB, pathB)
	return nil
}
