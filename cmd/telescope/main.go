// Command telescope generates, inspects, and replays network-telescope
// traces. Every trace is a classic pcap savefile, so the simulation's
// traces and gateway captures open in the tools every network operator
// already runs (tcpdump, Wireshark, tcpreplay), and their captures
// replay here.
//
// Usage:
//
//	telescope gen    [-out FILE] [-space CIDR] [-duration D] [-rate PPS] [-seed N]
//	telescope info   [-in FILE]
//	telescope dump   [-in FILE] [-n N]         (human-readable records)
//	telescope csv    [-in FILE]                (CSV to stdout)
//	telescope replay [-in FILE] -to ADDR [-speedup F | -maxrate] [-key N] [-plain-gre]
//
// All subcommands stream record-at-a-time: multi-GB traces are
// processed in bounded memory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"potemkin/internal/ingest"
	"potemkin/internal/netsim"
	"potemkin/internal/telescope"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "dump":
		cmdDump(os.Args[2:])
	case "csv":
		cmdCSV(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: telescope {gen|info|dump|csv|replay} [flags]")
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "telescope: "+format+"\n", args...)
	os.Exit(1)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "trace.pcap", "output pcap savefile")
	space := fs.String("space", "10.5.0.0/16", "monitored space")
	duration := fs.Duration("duration", 10*time.Minute, "trace duration")
	rate := fs.Float64("rate", 200, "aggregate packets/second")
	sweep := fs.Float64("sweep", 0.35, "fraction of packets in sweep sessions")
	seed := fs.Uint64("seed", 1, "generator seed")
	fs.Parse(args)

	prefix, err := netsim.ParsePrefix(*space)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := telescope.DefaultGenConfig()
	cfg.Space = prefix
	cfg.Duration = *duration
	cfg.Rate = *rate
	cfg.SweepFrac = *sweep
	cfg.Seed = *seed

	recs, err := telescope.Generate(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if _, err := ingest.WritePcap(f, &telescope.SliceSource{Recs: recs}); err != nil {
		fatalf("writing: %v", err)
	}
	st := telescope.Summarize(recs)
	fmt.Printf("wrote %s: %d packets, %d sources, %d destinations, %v, %.0f pps\n",
		*out, st.Packets, st.UniqueSources, st.UniqueDests,
		st.Duration.Truncate(time.Second), st.RatePPS)
}

// openSource opens a pcap savefile as a streaming record source.
func openSource(path string) (telescope.Source, *os.File) {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	src, err := ingest.NewPcapSource(f)
	if err != nil {
		fatalf("reading %s: %v", path, err)
	}
	return src, f
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "trace.pcap", "input pcap savefile")
	fs.Parse(args)
	src, f := openSource(*in)
	defer f.Close()

	var acc telescope.Summary
	byProto := map[netsim.Proto]int{}
	byPort := map[uint16]int{}
	var rec telescope.Record
	for {
		err := src.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			fatalf("reading %s: %v", *in, err)
		}
		acc.Add(&rec)
		byProto[rec.Proto]++
		byPort[rec.DstPort]++
	}
	st := acc.Stats()
	fmt.Printf("packets:       %d\n", st.Packets)
	fmt.Printf("sources:       %d\n", st.UniqueSources)
	fmt.Printf("destinations:  %d\n", st.UniqueDests)
	fmt.Printf("duration:      %v\n", st.Duration.Truncate(time.Millisecond))
	fmt.Printf("rate:          %.1f pps\n", st.RatePPS)

	fmt.Printf("protocols:    ")
	for p, c := range byProto {
		fmt.Printf(" %s=%d", p, c)
	}
	fmt.Println()
	// Top 5 ports.
	fmt.Printf("top ports:    ")
	for i := 0; i < 5; i++ {
		best, bestC := uint16(0), 0
		for p, c := range byPort {
			if c > bestC {
				best, bestC = p, c
			}
		}
		if bestC == 0 {
			break
		}
		fmt.Printf(" %d=%d", best, bestC)
		delete(byPort, best)
	}
	fmt.Println()
}

func cmdDump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	in := fs.String("in", "trace.pcap", "input pcap savefile")
	n := fs.Int("n", 20, "records to dump")
	fs.Parse(args)
	src, f := openSource(*in)
	defer f.Close()
	shown, more := 0, 0
	var rec telescope.Record
	for {
		err := src.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			fatalf("%v", err)
		}
		if shown < *n {
			fmt.Printf("%-14v %s\n", time.Duration(rec.At).Truncate(time.Microsecond), rec.Packet())
			shown++
		} else {
			more++
		}
	}
	if more > 0 {
		fmt.Printf("... %d more\n", more)
	}
}

func cmdCSV(args []string) {
	fs := flag.NewFlagSet("csv", flag.ExitOnError)
	in := fs.String("in", "trace.pcap", "input pcap savefile")
	fs.Parse(args)
	src, f := openSource(*in)
	defer f.Close()
	fmt.Println("t_seconds,src,dst,proto,sport,dport,flags,paylen")
	var rec telescope.Record
	for {
		err := src.Read(&rec)
		if err == io.EOF {
			return
		}
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%.6f,%s,%s,%s,%d,%d,%s,%d\n",
			rec.At.Seconds(), rec.Src, rec.Dst, rec.Proto, rec.SrcPort, rec.DstPort,
			netsim.FlagString(rec.Flags), rec.PayLen)
	}
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "trace.pcap", "input pcap savefile")
	to := fs.String("to", fmt.Sprintf("127.0.0.1:%d", ingest.DefaultPort), "listener UDP address")
	speedup := fs.Float64("speedup", 1, "replay this many times faster than recorded")
	maxrate := fs.Bool("maxrate", false, "replay back to back, ignoring recorded timing")
	key := fs.Uint("key", 1, "GRE tunnel key")
	plain := fs.Bool("plain-gre", false, "send plain GRE framing (no virtual-timestamp prefix)")
	fs.Parse(args)
	src, f := openSource(*in)
	defer f.Close()
	s, err := ingest.DialWire(*to, uint32(*key), !*plain)
	if err != nil {
		fatalf("%v", err)
	}
	defer s.Close()
	start := time.Now()
	n, last, err := ingest.Replay(s, src, ingest.ReplayOptions{Speedup: *speedup, MaxRate: *maxrate})
	if err != nil {
		fatalf("replaying %s: %v", *in, err)
	}
	wall := time.Since(start)
	fmt.Printf("replayed %d packets (%s of trace time) to %s in %v (%.0f pps on the wire)\n",
		n, time.Duration(last).Truncate(time.Millisecond), *to, wall.Truncate(time.Millisecond),
		float64(n)/wall.Seconds())
}
