package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"potemkin/internal/cluster"
	"potemkin/internal/core"
	"potemkin/internal/farm"
	"potemkin/internal/gre"
	"potemkin/internal/guest"
	"potemkin/internal/ingest"
	"potemkin/internal/mem"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
	"potemkin/internal/vmm"
)

// Isolated probes time the layers that have no seam, each on the
// workload's own packets. A probe reports the median of probeRounds
// rounds; its number is an in-cache floor, not the cost in situ, which is
// why the ledger carries an unattributed remainder.

const probeRounds = 5

// sink keeps the compiler from discarding probe results.
var sink uint64

// probeInput is the workload's traffic as the probes consume it.
type probeInput struct {
	pkts   []netsim.Packet
	inner  [][]byte // marshalled IPv4 packets
	frames [][]byte // the same, GRE-encapsulated with key and sequence
	// frame regenerates the stream for the wire probes; nil on workloads
	// that never touch the socket.
	frame frameFn
	// pending is the kernel's event-queue depth the workload ran at.
	pending int
}

const probePackets = 4096

// probeInputFrom samples the first probePackets packets of a stream.
func probeInputFrom(next func(i uint64, pkt *netsim.Packet) bool) probeInput {
	var in probeInput
	for i := uint64(0); i < probePackets; i++ {
		var p netsim.Packet
		if !next(i, &p) {
			break
		}
		in.pkts = append(in.pkts, p)
		raw := p.Marshal()
		in.inner = append(in.inner, raw)
		in.frames = append(in.frames, gre.Encap(&gre.Header{HasKey: true, HasSequence: true, Key: 1, Sequence: uint32(i)}, raw))
	}
	return in
}

func probeInputFromRecords(recs []telescope.Record) probeInput {
	return probeInputFrom(func(i uint64, pkt *netsim.Packet) bool {
		if int(i) >= len(recs) {
			return false
		}
		*pkt = *recs[i].Packet()
		return true
	})
}

// perOp runs fn rounds times over n operations and samples ns per
// operation into the named metric.
func perOp(r *run, name string, n int, fn func()) {
	for round := 0; round < probeRounds; round++ {
		t0 := time.Now()
		fn()
		r.sample(name, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
}

// probeCodecs times the wire codecs: GRE decap, IPv4 parse and marshal,
// and the packet-to-record conversion WireSource.Read performs.
func probeCodecs(r *run, in probeInput) error {
	passes := r.cfg.scaled(64, 2)
	n := passes * len(in.pkts)
	var firstErr error
	perOp(r, "gre.decap_ns_per_pkt", n, func() {
		for p := 0; p < passes; p++ {
			for _, f := range in.frames {
				_, inner, err := gre.Decap(f)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				sink += uint64(len(inner))
			}
		}
	})
	perOp(r, "netsim.unmarshal_ns_per_pkt", n, func() {
		var pkt netsim.Packet
		for p := 0; p < passes; p++ {
			for _, b := range in.inner {
				if err := pkt.Unmarshal(b); err != nil && firstErr == nil {
					firstErr = err
				}
				sink += uint64(pkt.Dst)
			}
		}
	})
	buf := make([]byte, 4096)
	perOp(r, "netsim.marshal_ns_per_pkt", n, func() {
		for p := 0; p < passes; p++ {
			for i := range in.pkts {
				sink += uint64(in.pkts[i].MarshalInto(buf))
			}
		}
	})
	perOp(r, "telescope.record_of_ns_per_pkt", n, func() {
		for p := 0; p < passes; p++ {
			for i := range in.pkts {
				rec := telescope.RecordOf(sim.Time(i), &in.pkts[i])
				sink += uint64(rec.Dst)
			}
		}
	})
	return firstErr
}

// probeKernel times one no-op event (At + Step) with the queue held at
// the workload's pending depth, and an epoch barrier over two empty
// domains on two goroutines.
func probeKernel(r *run, in probeInput) {
	k := sim.NewKernel(1)
	for i := 0; i < in.pending; i++ {
		k.At(sim.Time(time.Hour)+sim.Time(i), func(sim.Time) {})
	}
	events := r.cfg.scaled(200000, 2000)
	perOp(r, "sim.event_ns", events, func() {
		for i := 0; i < events; i++ {
			k.At(k.Now()+1, func(sim.Time) {})
			k.Step()
		}
	})

	epochs := r.cfg.scaled(2000, 50)
	runner := sim.NewParallelRunner([]*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}, time.Millisecond)
	runner.SetAdaptive(1) // one epoch per lookahead cell, so the count is known
	defer runner.Close()
	for round := 0; round < probeRounds; round++ {
		before := runner.Epochs()
		t0 := time.Now()
		runner.RunFor(time.Duration(epochs) * time.Millisecond)
		r.sample("sim.barrier_ns_per_epoch", float64(time.Since(t0).Nanoseconds())/float64(runner.Epochs()-before))
	}
}

// probeHost builds one server with the farm's reference image.
func probeHost(k *sim.Kernel) (*vmm.VMHost, farm.ImageSpec) {
	cfg := vmm.DefaultHostConfig("probe")
	cfg.MemoryBytes = 1 << 42
	h := vmm.NewHost(k, cfg)
	img := farm.DefaultImage()
	h.RegisterImage(img.Name, img.NumPages, img.ResidentPages, img.DiskBlocks, img.Seed)
	return h, img
}

// probeClone times an isolated flash clone (its simulated stages run to
// completion, then the VM is destroyed) and the first write to an
// image-backed page, which is delta virtualization's copy.
func probeClone(r *run) error {
	k := sim.NewKernel(1)
	h, img := probeHost(k)
	clones := r.cfg.scaled(2000, 20)
	var cloneErr error
	perOp(r, "vmm.flash_clone_ns", clones, func() {
		for i := 0; i < clones; i++ {
			vm, err := h.FlashClone(img.Name, netsim.Addr(i+1), nil)
			if err != nil {
				cloneErr = err
				return
			}
			k.Run()
			h.Destroy(vm.ID)
		}
	})
	if cloneErr != nil {
		return cloneErr
	}

	store := mem.NewStore()
	image := mem.BuildImage(store, img.NumPages, img.ResidentPages, img.Seed)
	writes := r.cfg.scaled(4096, 64)
	b := []byte{1}
	for round := 0; round < probeRounds; round++ {
		space := image.NewClone()
		t0 := time.Now()
		for vpn := uint64(0); vpn < uint64(writes); vpn++ {
			if !space.Write(vpn, 0, b) {
				return fmt.Errorf("mem probe: write to image page %d did not fault", vpn)
			}
		}
		r.sample("mem.cow_write_ns", float64(time.Since(t0).Nanoseconds())/float64(writes))
		space.Release()
	}
	return nil
}

// guestConnTable is the guest's connection-table bound (guest.maxConns,
// unexported): past it every new flow evicts the oldest-idle entry.
const guestConnTable = 256

// probeGuests is how many guests the flow-state probes cycle over: the
// wire workloads' destination count.
const probeGuests = wireDests

// probeGuest times the guest's three SYN paths and its start burst, in
// the workload's own memory regime: probeGuests guests with their
// connection tables, visited round-robin as the wire workloads' 1,024
// destinations are, so a table has left the cache by the time its next
// SYN arrives. known = a SYN on a flow already in the table; new = an
// insert into a table with room; evict = an insert into a full table.
func probeGuest(r *run) error {
	k := sim.NewKernel(1)
	h, img := probeHost(k)
	guests := make([]*guest.Instance, r.cfg.scaled(probeGuests, probeRounds))
	for i := range guests {
		vm, err := h.FlashClone(img.Name, netsim.Addr(i+1), nil)
		if err != nil {
			return err
		}
		k.Run()
		in := guest.New(k, vm, guest.WindowsXP(), func(*netsim.Packet) {}, nil, guest.Hooks{})
		guests[i] = in
		if i < probeRounds {
			t0 := time.Now()
			in.Start()
			r.sample("guest.start_ns_per_vm", float64(time.Since(t0).Nanoseconds()))
			in.Stop() // no page-touch timers: the probes below drive the clock-free paths only
		}
	}
	syn := netsim.TCPSyn(0, 0, 0, 445, 1)
	// pass sends flows [from, to) to every guest, guest by guest within a
	// flow, and returns ns per SYN.
	pass := func(from, to int) float64 {
		t0 := time.Now()
		for f := from; f < to; f++ {
			syn.Src, syn.SrcPort = netsim.Addr(0x02000000+f), uint16(1024+f%60000)
			for _, in := range guests {
				syn.Dst = in.IP
				in.HandlePacket(k.Now(), syn)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64((to-from)*len(guests))
	}
	const room = guestConnTable - 1 // inserts below this never evict
	for round := 0; round < probeRounds; round++ {
		r.sample("guest.syn_new_ns", pass(round*room/probeRounds, (round+1)*room/probeRounds))
	}
	for round := 0; round < probeRounds; round++ {
		r.sample("guest.syn_known_ns", pass(0, 40))
	}
	pass(room, guestConnTable) // every table is now full
	for round := 0; round < probeRounds; round++ {
		from := guestConnTable + round*40
		r.sample("guest.syn_evict_ns", pass(from, from+40))
	}
	for _, in := range guests {
		if got := in.Conns(); got != guestConnTable {
			return fmt.Errorf("guest probe: a table holds %d connections, want %d", got, guestConnTable)
		}
	}
	return nil
}

// probeCluster times an empty epoch's round trip between a coordinator
// and one in-process worker over loopback TCP.
func probeCluster(r *run, ec core.ShardEngineConfig) error {
	epochs := r.cfg.scaled(300, 30)
	for round := 0; round < armIterations(r.cfg); round++ {
		cl, err := startCluster(ec, "bench-probe")
		if err != nil {
			return err
		}
		t0 := time.Now()
		cl.c.RunFor(time.Duration(epochs) * time.Millisecond)
		wall := time.Since(t0)
		n := cl.epochs.Load()
		if err := cl.stop(); err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("cluster probe: no epochs ran")
		}
		r.sample("cluster.epoch_rtt_us", float64(wall.Microseconds())/float64(n))
	}
	return nil
}

// liveCluster is a coordinator with one in-process worker.
type liveCluster struct {
	c      *cluster.Coordinator
	wg     sync.WaitGroup
	werr   error
	epochs atomic.Uint64 // epochs dispatched so far
}

func startCluster(ec core.ShardEngineConfig, tag string) (*liveCluster, error) {
	cl := &liveCluster{}
	c, err := cluster.New(cluster.Config{
		Engine: ec, ConfigTag: tag, ListenAddr: "127.0.0.1:0", Workers: 1,
		HeartbeatInterval: 100 * time.Millisecond,
		OnEpoch:           func(uint64, sim.Time, sim.Time) { cl.epochs.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		c.Close()
		return nil, err
	}
	cl.c = c
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		cl.werr = cluster.RunWorker(cluster.WorkerConfig{
			Addr: c.Addr().String(), Engine: ec, ConfigTag: tag, Name: "w0",
			HeartbeatInterval: 100 * time.Millisecond,
		})
	}()
	if err := c.WaitReady(30 * time.Second); err != nil {
		c.Close()
		cl.wg.Wait()
		return nil, err
	}
	return cl, nil
}

// stop closes the coordinator and waits for the worker to exit.
func (cl *liveCluster) stop() error {
	err := cl.c.Close()
	cl.wg.Wait()
	if err == nil {
		err = cl.werr
	}
	return err
}

// probeIngest times the listener alone — socket read, decap, queue,
// Release — against the workload's frames in a closed loop, and the
// generator's own cost per frame against a socket nobody reads.
func probeIngest(r *run, in probeInput) error {
	frames := uint64(r.cfg.scaled(300000, 3000))
	for round := 0; round < armIterations(r.cfg); round++ {
		l, err := ingest.Listen(ingest.Config{Addr: "127.0.0.1:0", Timestamped: true})
		if err != nil {
			return err
		}
		var drained atomic.Uint64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for f := range l.Frames(0) {
				l.Release(f)
				drained.Add(1)
			}
		}()
		s, err := ingest.DialWire(l.Addr().String(), 1, true)
		if err != nil {
			l.Close()
			<-done
			return err
		}
		var pkt netsim.Packet
		var seen uint64
		t0 := time.Now()
		for i := uint64(0); i < frames; i++ {
			in.frame(i, &pkt)
			if err := s.SendPacket(sim.Time(i)*sim.Time(frameGap), &pkt); err != nil {
				s.Close()
				l.Close()
				<-done
				return err
			}
			for i+1-seen >= loopWindow {
				if seen = drained.Load(); i+1-seen >= loopWindow {
					time.Sleep(20 * time.Microsecond)
				}
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for seen = drained.Load(); seen != frames && time.Now().Before(deadline); seen = drained.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		wall := time.Since(t0)
		s.Close()
		l.Close()
		<-done
		if seen != frames {
			return fmt.Errorf("ingest probe: drained %d of %d frames", seen, frames)
		}
		r.sample("ingest.listen_drain_pps", float64(frames)/wall.Seconds())
	}

	// The generator alone: the same sends into a bound socket that is
	// never read (the kernel drops what overflows its buffer).
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer dead.Close()
	s, err := ingest.DialWire(dead.LocalAddr().String(), 1, true)
	if err != nil {
		return err
	}
	defer s.Close()
	var pkt netsim.Packet
	var sendErr error
	perOp(r, "ingest.sender_ns_per_pkt", int(frames), func() {
		for i := uint64(0); i < frames; i++ {
			in.frame(i, &pkt)
			if err := s.SendPacket(sim.Time(i)*sim.Time(frameGap), &pkt); err != nil && sendErr == nil {
				sendErr = err
			}
		}
	})
	return sendErr
}

// runProbes runs every probe that applies. ec is the engine
// configuration the cluster probe's empty epochs run on.
func runProbes(r *run, in probeInput, ec core.ShardEngineConfig) error {
	if err := probeCodecs(r, in); err != nil {
		return err
	}
	probeKernel(r, in)
	if err := probeClone(r); err != nil {
		return err
	}
	if err := probeGuest(r); err != nil {
		return err
	}
	if in.frame != nil {
		if err := probeIngest(r, in); err != nil {
			return err
		}
	}
	return probeCluster(r, ec)
}
