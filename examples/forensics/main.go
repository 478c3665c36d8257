// Forensics: the full incident workflow — run a honeyfarm with the
// event log, packet capture, and auto-checkpointing enabled while a
// multi-stage worm rampages inside it; then reconstruct the incident
// from the artifacts alone, the way an analyst who wasn't watching
// would.
//
//	go run ./examples/forensics
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"potemkin"
	"potemkin/internal/analysis"
	"potemkin/internal/ingest"
	"potemkin/internal/telescope"
	"potemkin/internal/vmm"
)

func main() {
	workdir, err := os.MkdirTemp("", "potemkin-forensics-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workdir)

	var eventLog bytes.Buffer
	hf := potemkin.MustNew(potemkin.Options{
		Seed:          11,
		Guest:         potemkin.GuestMultiStage,
		Policy:        potemkin.InternalReflect,
		IdleTimeout:   -1,
		EventLog:      &eventLog,
		CaptureDir:    filepath.Join(workdir, "capture"),
		CheckpointDir: filepath.Join(workdir, "checkpoints"),
	})

	fmt.Println("== incident: a multi-stage worm hits 10.5.7.7; nobody is watching ==")
	hf.InjectExploit("198.51.100.23", "10.5.7.7")
	hf.RunFor(20 * time.Second)
	st := hf.Stats()
	hf.Close() // flush captures

	fmt.Printf("(live ground truth: %d VMs infected, %d reflections, %d DNS lookups proxied)\n\n",
		st.InfectedVMs, st.OutboundReflected, st.DNSProxied)

	fmt.Println("== afterwards: reconstruct the incident from the artifacts ==")

	// 1. The event log rebuilds the who/when/how-deep story.
	rep, err := analysis.Analyze(&eventLog)
	if err != nil {
		log.Fatal(err)
	}
	rep.Render(os.Stdout)

	// 2. The packet capture (tovm.pcap) shows what the malware actually sent.
	f, err := os.Open(filepath.Join(workdir, "capture", "tovm.pcap"))
	if err != nil {
		log.Fatal(err)
	}
	src, err := ingest.NewPcapSource(f)
	if err != nil {
		log.Fatal(err)
	}
	var first []string
	n := 0
	for rec := new(telescope.Record); ; n++ {
		if err := src.Read(rec); err == io.EOF {
			break
		} else if err != nil {
			log.Fatal(err)
		}
		if n < 5 {
			first = append(first, fmt.Sprintf("  t=%-10v %s", time.Duration(rec.At).Truncate(time.Microsecond), rec.Packet()))
		}
	}
	f.Close()
	fmt.Printf("\npacket capture: %d packets delivered to VMs; first five:\n", n)
	for _, line := range first {
		fmt.Println(line)
	}

	// 3. The checkpoints preserve each compromised VM's memory delta.
	entries, err := os.ReadDir(filepath.Join(workdir, "checkpoints"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncheckpoints: %d compromised VMs preserved:\n", len(entries))
	for i, e := range entries {
		if i == 4 {
			fmt.Printf("  … and %d more\n", len(entries)-4)
			break
		}
		cf, err := os.Open(filepath.Join(workdir, "checkpoints", e.Name()))
		if err != nil {
			log.Fatal(err)
		}
		ck, err := vmm.ReadCheckpoint(cf)
		cf.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: %d dirty pages (%d KiB of malware-touched state)\n",
			ck.IP, len(ck.Pages), ck.Bytes()>>10)
	}

	fmt.Println("\nthe log said who and when, the capture said what, the checkpoints kept the evidence.")
}
