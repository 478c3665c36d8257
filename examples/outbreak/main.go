// Outbreak: a worm epidemic rages on the (simulated) Internet; the
// honeyfarm's telescope space catches stray scans, captures a live
// infection within seconds, and its detector flags the compromised VM —
// while containment keeps every worm byte inside.
//
//	go run ./examples/outbreak [-trace-out FILE]
//
// With -trace-out, the run's binding-lifecycle span trace is written as
// JSON lines; `go run ./cmd/inspect trace -chrome OUT.json FILE` renders
// it for Perfetto (ui.perfetto.dev) or chrome://tracing, where every
// binding's bind → clone → active → recycle timeline is a row.
// `make trace-demo` does both.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"potemkin"
	"potemkin/internal/guest"
	"potemkin/internal/sim"
	"potemkin/internal/worm"
)

func main() {
	traceOut := flag.String("trace-out", "", "write the span trace (JSONL) of all binding lifecycles to this file")
	flag.Parse()

	opts := potemkin.Options{
		Seed:   7,
		Policy: potemkin.DropAll,
		Hooks: &potemkin.Hooks{
			OnInfected: func(addr string, gen int) {
				fmt.Printf("  ** honeyfarm captured live malware on %s (chain depth %d)\n", addr, gen)
			},
			OnDetected: func(addr string, n int) {
				fmt.Printf("  !! detector: %s began scanning (%d distinct targets)\n", addr, n)
			},
		},
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "outbreak: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		opts.TraceOut = f
	}
	hf := potemkin.MustNew(opts)
	defer hf.Close()

	// An epidemic on the outside: 2,000 hosts already infected, each
	// scanning 50 addresses per second, out of a million vulnerable.
	// Its scans into the telescope are a replay source, routed to the
	// farm like any trace.
	wcfg := worm.DefaultConfig()
	wcfg.Seed = 7
	wcfg.InitialInfected = 2000
	wcfg.ScanRate = 50
	wcfg.ExploitPayload = guest.WindowsXP().ExploitPayload(0)
	e := worm.New(wcfg)

	fmt.Printf("outbreak begins: %d infected on the Internet, honeyfarm watching %s\n\n",
		e.Infected(), wcfg.Telescope)
	// The epidemic reads ahead of the farm by at most one scan, so the
	// Internet count a progress line shows can run slightly ahead of it.
	_, err := hf.Replay(e.Source(sim.Start.Add(5*time.Minute)),
		potemkin.WithProgress(time.Minute, func(st potemkin.Stats) {
			fmt.Printf("t=%v: internet infected=%d | honeyfarm: vms=%d infected=%d dropped=%d\n",
				st.Now.Truncate(time.Second), e.Infected(), st.LiveVMs, st.InfectedVMs, st.OutboundDropped)
		}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "outbreak: %v\n", err)
		os.Exit(1)
	}

	st := hf.Stats()
	fmt.Printf("\ncaptures: %d infected honeypots, %d flagged by the scan detector\n",
		st.InfectedVMs, st.DetectedInfected)
	fmt.Printf("containment: %d worm packets dropped at the gateway, zero escaped\n",
		st.OutboundDropped)
	fmt.Printf("the worm's first scan hit the telescope %v into the outbreak\n",
		time.Duration(e.Stats().FirstTelescopeHit).Truncate(time.Millisecond))
	if *traceOut != "" {
		hf.Close() // flush open spans
		fmt.Printf("\n[trace] %s — render it with inspect trace -chrome\n", *traceOut)
	}
}
