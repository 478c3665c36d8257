package potemkin_test

import (
	"fmt"
	"time"

	"potemkin"
)

// The smallest useful honeyfarm: one probe, one flash-cloned VM, one
// protocol-faithful reply.
func Example() {
	hf, err := potemkin.New(potemkin.Options{
		Seed:   42,
		Policy: potemkin.ReflectSource,
	})
	if err != nil {
		panic(err)
	}
	defer hf.Close()

	hf.InjectProbe("203.0.113.9", "10.5.77.1", 445)
	hf.RunFor(2 * time.Second)

	st := hf.Stats()
	fmt.Println("VMs:", st.LiveVMs)
	fmt.Println("replies to scanner:", st.OutboundToSource)
	// Output:
	// VMs: 1
	// replies to scanner: 1
}

// Capturing a live infection: the exploit compromises the honeypot, the
// worm starts scanning, the gateway's detector flags it — and drop-all
// containment keeps every scan inside.
func ExampleHoneyfarm_InjectExploit() {
	detected := ""
	hf := potemkin.MustNew(potemkin.Options{
		Seed:   7,
		Policy: potemkin.DropAll,
		Hooks: &potemkin.Hooks{
			OnDetected: func(addr string, _ int) { detected = addr },
		},
	})
	defer hf.Close()

	hf.InjectExploit("198.51.100.23", "10.5.1.2")
	hf.RunFor(5 * time.Second)

	fmt.Println("detected:", detected)
	fmt.Println("infected VMs:", hf.Stats().InfectedVMs)
	fmt.Println("leaked packets:", hf.Stats().OutboundToSource)
	// Output:
	// detected: 10.5.1.2
	// infected VMs: 1
	// leaked packets: 0
}

// Covering an address space: replay synthetic telescope traffic and let
// idle recycling multiplex a few VMs across many addresses.
func ExampleHoneyfarm_Replay() {
	hf := potemkin.MustNew(potemkin.Options{
		Seed:        3,
		IdleTimeout: 5 * time.Second,
	})
	defer hf.Close()

	recs, err := hf.GenerateTrace(time.Minute, 40)
	if err != nil {
		panic(err)
	}
	n, err := hf.Replay(potemkin.SliceSource(recs))
	if err != nil {
		panic(err)
	}
	hf.RunFor(time.Minute) // drain

	st := hf.Stats()
	fmt.Println("packets injected:", n == len(recs))
	fmt.Println("addresses served > VMs alive at once:", st.BindingsCreated > uint64(st.PeakVMs))
	fmt.Println("everything recycled:", st.LiveVMs == 0)
	// Output:
	// packets injected: true
	// addresses served > VMs alive at once: true
	// everything recycled: true
}
