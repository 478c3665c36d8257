package potemkin

// Live wire ingest, declared like every other mode: Options.Wire names
// the listener, StartWire opens it, Serve blocks while the feed drives
// the honeyfarm. The wire source is quantized onto the epoch grid
// through the same conservative feeding machinery an offline replay
// uses (arrivals for epoch N become visible at the N→N+1 exchange), so
// a live run with WireOptions.Capture set — Options.Parallel or not —
// writes a pcap whose replay reproduces the live run's merged output
// byte for byte. See DESIGN.md "Live parallel ingest".

import (
	"errors"
	"net"
	"os"
	"sync"
	"time"

	"potemkin/internal/ingest"
)

// WireOptions declares live GRE-over-UDP wire ingest (Options.Wire).
// The zero value of every field except Addr has a working default.
type WireOptions struct {
	// Addr is the UDP listen address, e.g. "127.0.0.1:4754" (or ":0"
	// to let the OS pick; see WireServer.Addr). Required.
	Addr string
	// Shards is the number of bounded queues the decoded feed is
	// partitioned across (by inner destination, so per-destination
	// order survives). Default 1. With several shards, cross-shard
	// arrival interleaving follows goroutine scheduling; the wire
	// source quantizes it onto a monotone virtual stream, so the run is
	// still exactly replayable from its capture — set Capture to keep
	// the artifact.
	Shards int
	// QueueLen sizes each shard's queue, which holds 2 × QueueLen
	// frames; past that the listener drops and counts. Default 4096.
	QueueLen int
	// PlainGRE expects plain GRE framing (no 8-byte virtual-timestamp
	// prefix): arrival wall time maps onto virtual time, scaled by
	// Speedup. Default is timestamped framing, whose virtual time is
	// exact.
	PlainGRE bool
	// Speedup scales wall arrival offsets onto virtual time under
	// PlainGRE (a feed replayed onto the wire 10x faster than recorded
	// maps back to recorded spacing with Speedup=10). Zero means 1.
	// Only meaningful with PlainGRE.
	Speedup float64
	// ListenFor stops the listener after this much wall time; zero
	// serves until Stop is called.
	ListenFor time.Duration
	// Capture, when set, writes every injected record to this classic
	// pcap savefile at its injected virtual time — the live run's
	// replayable artifact. Replay(pcap) on an identically-configured
	// honeyfarm reproduces the live run byte for byte.
	Capture string
}

// WireStats summarizes a wire-serving run.
type WireStats struct {
	// Injected is the number of records scheduled into the simulation.
	Injected int
	// Ingest is the listener and delivery accounting (the same shape
	// Snapshot surfaces while the run is live).
	Ingest IngestSummary
}

// WireServer is a running wire listener bound to a honeyfarm. StartWire
// opens it; Serve drives the simulation from the feed; Stop (or
// WireOptions.ListenFor) ends the feed, after which Serve drains the
// queues, runs the epilogue, and returns.
type WireServer struct {
	hf       *Honeyfarm
	l        *ingest.Listener
	src      *ingest.WireSource
	capFile  *os.File
	timer    *time.Timer
	stopOnce sync.Once
}

// StartWire opens the listener declared by Options.Wire. Call Serve to
// start feeding the simulation. One wire server per honeyfarm.
func (hf *Honeyfarm) StartWire() (*WireServer, error) {
	w := hf.opts.Wire
	if w == nil {
		return nil, errors.New("potemkin: StartWire requires Options.Wire")
	}
	if hf.wire != nil {
		return nil, errors.New("potemkin: StartWire already called for this honeyfarm")
	}
	l, err := ingest.Listen(ingest.Config{
		Addr:        w.Addr,
		Shards:      w.Shards,
		QueueLen:    w.QueueLen,
		Timestamped: !w.PlainGRE,
		Metrics:     hf.metrics,
	})
	if err != nil {
		return nil, err
	}
	s := &WireServer{hf: hf, l: l}
	s.src = &ingest.WireSource{L: l, Speedup: w.Speedup, Metrics: hf.metrics}
	if w.Capture != "" {
		f, err := os.Create(w.Capture)
		if err != nil {
			l.Close()
			return nil, err
		}
		pw, err := ingest.NewPcapWriter(f)
		if err != nil {
			f.Close()
			l.Close()
			return nil, err
		}
		s.capFile = f
		s.src.Capture = pw
	}
	if w.ListenFor > 0 {
		s.timer = time.AfterFunc(w.ListenFor, s.Stop)
	}
	hf.wire = s
	return s, nil
}

// Addr returns the bound socket address (useful with ":0").
func (s *WireServer) Addr() net.Addr { return s.l.Addr() }

// Stop closes the listener; frames already queued are still drained by
// Serve before it returns. Idempotent and safe from any goroutine.
func (s *WireServer) Stop() {
	s.stopOnce.Do(func() {
		if s.timer != nil {
			s.timer.Stop()
		}
		s.l.Close()
	})
}

// Serve blocks while the wire feed drives the honeyfarm: each frame is
// injected at its virtual time through the engine's epoch-aligned
// replay path. Virtual time advances only with arrivals (wall
// silence does not age the farm — the run would not replay otherwise).
// Serve returns after Stop or WireOptions.ListenFor ends the feed, the
// queues drain, and the epilogue (WithEpilogue; default 1 ms) settles.
func (s *WireServer) Serve(opts ...ReplayOption) (WireStats, error) {
	n, err := s.hf.Replay(s.src, opts...)
	s.Stop()
	if s.capFile != nil {
		if cerr := s.capFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.capFile = nil
	}
	st := s.Stats()
	st.Injected = n
	return st, err
}

// Stats snapshots the wire accounting; safe to call mid-serve from any
// goroutine (every counter is atomic).
func (s *WireServer) Stats() WireStats {
	ls := s.l.Stats()
	return WireStats{
		Injected: int(s.src.Emitted()),
		Ingest: IngestSummary{
			Received:    ls.Received,
			Bytes:       ls.Bytes,
			FrameErrors: ls.FrameErrors,
			Dropped:     ls.Dropped,
			SeqGaps:     ls.SeqGaps,
			Enqueued:    ls.Enqueued,
			Delivered:   s.src.Emitted(),
			Clamped:     s.src.Clamped(),
			QueueDepth:  ls.QueueDepth,
			QueueHWM:    ls.QueueHWM,
		},
	}
}
