// Command floodgen is a load generator for the wire-ingest path. It
// synthesizes telescope-style scan traffic (TCP SYN probes into the
// monitored space from random external sources), GRE-encapsulates it,
// and blasts it over UDP at a potemkind -listen endpoint. Together they
// close the loop the paper's deployment runs open:
//
//	floodgen -> UDP/GRE -> ingest.Listener -> gateway -> VMs
//
// Each worker owns one socket and one GRE key, so the listener's
// per-tunnel sequence accounting attributes loss per worker. Packets
// carry the virtual-timestamp framing by default (-plain-gre disables
// it): virtual time advances with the wall clock, so the receiving
// honeyfarm sees a timeline as long as the flood.
//
// Example (terminal 1, then terminal 2):
//
//	potemkind -listen 127.0.0.1:4754 -listen-for 10s -space 10.5.0.0/16
//	floodgen -to 127.0.0.1:4754 -duration 10s -rate 50000
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"potemkin/internal/ingest"
	"potemkin/internal/netsim"
	"potemkin/internal/pace"
	"potemkin/internal/sim"
)

// scanPorts are the services scans hammer hardest; workers cycle
// through them weighted toward the front.
var scanPorts = []uint16{445, 80, 135, 139, 443, 1433, 3389, 22, 23, 8080}

func main() {
	to := flag.String("to", fmt.Sprintf("127.0.0.1:%d", ingest.DefaultPort), "listener UDP address")
	space := flag.String("space", "10.5.0.0/16", "monitored space to scan into")
	rate := flag.Float64("rate", 0, "aggregate packets/second (0 = as fast as possible)")
	duration := flag.Duration("duration", 10*time.Second, "how long to flood")
	workers := flag.Int("workers", 1, "concurrent senders (one socket + GRE key each)")
	seed := flag.Uint64("seed", 1, "synthesis seed")
	plain := flag.Bool("plain-gre", false, "send plain GRE framing (no virtual-timestamp prefix)")
	report := flag.Duration("report", time.Second, "progress report interval (0 = none)")
	flag.Parse()

	prefix, err := netsim.ParsePrefix(*space)
	if err != nil {
		fatalf("%v", err)
	}
	if *workers < 1 {
		*workers = 1
	}

	var sent, bytes atomic.Uint64
	start := time.Now()
	deadline := start.Add(*duration)

	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		s, err := ingest.DialWire(*to, uint32(w+1), !*plain)
		if err != nil {
			fatalf("%v", err)
		}
		wg.Add(1)
		go func(w int, s *ingest.WireSender) {
			defer wg.Done()
			defer s.Close()
			flood(s, prefix, *seed+uint64(w), *rate/float64(*workers), start, deadline, &sent, &bytes)
		}(w, s)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if *report > 0 {
		tick := time.NewTicker(*report)
		defer tick.Stop()
		var lastN uint64
		lastT := start
	loop:
		for {
			select {
			case <-done:
				break loop
			case now := <-tick.C:
				n := sent.Load()
				fmt.Printf("%8s  sent %d  (%.0f pps)\n",
					now.Sub(start).Truncate(time.Second), n,
					float64(n-lastN)/now.Sub(lastT).Seconds())
				lastN, lastT = n, now
			}
		}
	} else {
		<-done
	}

	wall := time.Since(start)
	fmt.Printf("flooded %d packets, %d MB in %v: %.0f pps, %.1f MB/s\n",
		sent.Load(), bytes.Load()>>20, wall.Truncate(time.Millisecond),
		float64(sent.Load())/wall.Seconds(),
		float64(bytes.Load())/1e6/wall.Seconds())
}

// flood synthesizes and sends probes until deadline, pacing toward
// rate pps (0 = unpaced) with the shared closed-loop governor: sleeps
// happen every batch, not every packet, and always toward the absolute
// schedule, so high rates are not limited by timer granularity and
// pacing error never accumulates.
func flood(s *ingest.WireSender, space netsim.Prefix, seed uint64, rate float64,
	start, deadline time.Time, sent, bytes *atomic.Uint64) {
	const batch = 64
	rng := sim.NewRNG(seed)
	gov := pace.NewGovernor(start, rate, batch)
	var pkt netsim.Packet
	for {
		for i := 0; i < batch; i++ {
			// Random external source scanning a random monitored address.
			src := netsim.Addr(rng.Uint64())
			for space.Contains(src) {
				src = netsim.Addr(rng.Uint64())
			}
			dst := space.Nth(rng.Uint64n(space.Size()))
			port := scanPorts[rng.Intn(len(scanPorts)*2)%len(scanPorts)]
			pkt = netsim.Packet{
				Src: src, Dst: dst, Proto: netsim.ProtoTCP, TTL: 116,
				SrcPort: uint16(32768 + rng.Intn(28232)), DstPort: port,
				Seq: uint32(rng.Uint64()), Flags: netsim.FlagSYN, Window: 65535,
			}
			ts := sim.Time(time.Since(start))
			err := s.SendPacket(ts, &pkt)
			if err == nil && i == batch-1 {
				err = s.Flush() // the batch is on the wire before Pace can sleep
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "floodgen: send: %v\n", err)
				return
			}
			gov.Pace()
		}
		sent.Add(batch)
		bytes.Add(s.Bytes)
		s.Bytes = 0
		if time.Now().After(deadline) {
			return
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "floodgen: "+format+"\n", args...)
	os.Exit(1)
}
