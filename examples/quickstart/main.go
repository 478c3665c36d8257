// Quickstart: build a honeyfarm, poke it like a scanner would, and
// watch a VM get flash-cloned, reply, go idle, and be recycled.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"potemkin"
)

func main() {
	hf, err := potemkin.New(potemkin.Options{
		Seed:           42,
		MonitoredSpace: "10.5.0.0/16", // the honeyfarm answers for 65,536 addresses
		Servers:        2,
		Policy:         potemkin.ReflectSource,
		IdleTimeout:    5 * time.Second,
		Hooks: &potemkin.Hooks{
			OnEgress: func(pkt string) {
				fmt.Printf("  [egress] %s\n", pkt)
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer hf.Close()

	fmt.Println("== a scanner probes an address nobody is using ==")
	if err := hf.InjectProbe("203.0.113.9", "10.5.77.1", 445); err != nil {
		log.Fatal(err)
	}
	hf.RunFor(time.Second)
	fmt.Printf("after 1s: %s\n", hf.Stats())
	fmt.Println("   (the SYN-ACK above came from a VM that did not exist when the probe arrived —")
	fmt.Println("    the gateway flash-cloned it in ~0.5s of simulated time)")

	fmt.Println("\n== the same scanner probes two more addresses ==")
	hf.InjectProbe("203.0.113.9", "10.5.77.2", 445)
	hf.InjectProbe("203.0.113.9", "10.5.200.9", 80)
	hf.RunFor(time.Second)
	fmt.Printf("after 2s: %s\n", hf.Stats())

	fmt.Println("\n== everything goes quiet; idle VMs are recycled ==")
	hf.RunFor(30 * time.Second)
	fmt.Printf("after 32s: %s\n", hf.Stats())
	fmt.Printf("\n%d VMs served %d addresses and were reclaimed — that multiplexing is the\n",
		hf.Stats().BindingsRecycled, hf.Stats().BindingsCreated)
	fmt.Println("scalability story: physical memory is only committed while traffic flows.")
}
