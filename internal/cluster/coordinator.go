package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Engine is the shared scenario. Coordinator and workers are
	// launched with the same configuration (SPMD-style: the config
	// holds closures and cannot cross the wire); the handshake verifies
	// agreement via ConfigTag + shards + seed + lookahead. The
	// coordinator builds no domains itself — it only needs the shard
	// count, monitored space, seed, and lookahead.
	Engine core.ShardEngineConfig
	// ConfigTag is the caller's canonical rendering of the scenario
	// (flag string, options dump); both sides must present the same tag.
	ConfigTag string

	// ListenAddr is the TCP address to accept workers on (":0" picks a
	// port; see Addr).
	ListenAddr string
	// Workers is the number of worker processes the shards are split
	// across (capped at the shard count). Workers that connect beyond
	// this count form the standby pool for crash recovery.
	Workers int

	// SnapshotName and SnapshotWarmup run the paper's image-preparation
	// flow on every domain before traffic (empty name skips it).
	SnapshotName   string
	SnapshotWarmup time.Duration

	// Heartbeat/deadline knobs (zero takes the default).
	HeartbeatInterval time.Duration // outgoing ping period (1s)
	HeartbeatTimeout  time.Duration // silence that declares a worker dead (5s)
	EpochTimeout      time.Duration // wall-clock bound on one epoch (2m)
	RestoreTimeout    time.Duration // wall-clock bound on a checkpoint restore (2m)
	RecoveryWait      time.Duration // how long to wait for a replacement worker (10s)
	AcceptTimeout     time.Duration // WaitReady bound on initial worker arrival (30s)

	// RecoveryLog, when non-nil, receives one line per crash-detection
	// and recovery step (also kept in memory; see RecoveryEvents).
	RecoveryLog io.Writer
	// Logf, when non-nil, receives coordinator progress logging.
	Logf func(format string, args ...any)

	// OnEpoch, when non-nil, observes every epoch dispatch (sequence
	// number and simulated bounds). Tests use it to time fault
	// injection against epoch progress; it runs on the driver
	// goroutine, so keep it fast.
	OnEpoch func(seq uint64, start, end sim.Time)
}

func (cfg Config) withDefaults() Config {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.EpochTimeout <= 0 {
		cfg.EpochTimeout = 2 * time.Minute
	}
	if cfg.RestoreTimeout <= 0 {
		cfg.RestoreTimeout = 2 * time.Minute
	}
	if cfg.RecoveryWait <= 0 {
		cfg.RecoveryWait = 10 * time.Second
	}
	if cfg.AcceptTimeout <= 0 {
		cfg.AcceptTimeout = 30 * time.Second
	}
	return cfg
}

// Results is the shard-order merge of every worker's output — the same
// totals, event-log bytes, and trace bytes a single-process run of the
// same scenario produces.
type Results struct {
	Gateway     gateway.Stats
	Farm        farm.Stats
	Guest       guest.Stats
	LiveVMs     int
	InfectedVMs int
	Bindings    int
	Memory      uint64
	DNSQueries  uint64
	FaultLog    []string
	Events      []byte
	Trace       []byte
	Now         sim.Time
	Recoveries  int
	// Metrics is every worker's final registry snapshot merged (empty
	// when the scenario ran without telemetry). The same merge feeds
	// MetricsText, so a post-run scrape equals these points exactly.
	Metrics []metrics.Point
}

// wconn is the coordinator's view of one worker connection.
type wconn struct {
	*conn
	name string
	id   int // assigned worker slot, or -1 while standby
	dead bool
	stop chan struct{} // closed on death; stops the heartbeat sender
	// stash holds frames that arrived from this worker while the driver
	// was awaiting a different worker (e.g. broadcast results replies
	// completing out of order). Driver goroutine only.
	stash []frame

	// Telemetry mirrors, written by the read loop and read by the HTTP
	// health/metrics endpoints — atomics only, never the driver state.
	lastRecv    atomic.Int64                    // wall nanos of the last frame
	lastSeq     atomic.Uint64                   // last epoch the worker completed
	lastMetrics atomic.Pointer[[]metrics.Point] // latest registry snapshot
	stashN      atomic.Int64                    // live mirror of len(stash)
}

// wevent is one item on the coordinator's single event stream: a frame
// from a worker, or its read error (death).
type wevent struct {
	w   *wconn
	fr  frame
	err error
}

// Coordinator is the cluster's sim.Transport: it carries each epoch's
// inputs to the workers and their outboxes back, under the same
// sim.ParallelRunner loop the in-process engine runs. All methods are
// for a single driver goroutine.
type Coordinator struct {
	cfg       Config
	shards    int
	workers   int
	lookahead time.Duration
	space     netsim.Prefix
	hash      uint64

	ln     net.Listener
	events chan wevent

	mu         sync.Mutex // guards standby (appended from accept goroutines)
	standby    []*wconn
	standbySig chan struct{}

	assigned []*wconn
	logs     []*shardLog
	base     sim.Time
	seq      uint64
	runner   *sim.ParallelRunner // drives the epochs over c; nil until WaitReady

	pendingCross []outboxEntry // decoded-valid, delivered at the next barrier

	// inputs holds each shard's encoded inputs for the epoch about to
	// open (cross-shard packets, injected ones, records), shipped and
	// logged by Advance; inputsNext is the earliest time in them. next is
	// each worker slot's earliest pending event as it last reported it.
	inputs     [][]byte
	inputsNext sim.Time
	next       []sim.Time

	// In-flight epoch state.
	curEnd      sim.Time
	donePending map[int]bool
	doneOutbox  []outboxEntry
	dispatched  time.Time
	advanceNS   []int64

	err        error
	recoveries int
	recLines   []string
	closed     bool

	// Telemetry. reg/prof come from Engine.Metrics / Engine.EpochLog;
	// the runner profiles each epoch with workers in the shard role. The
	// pub* atomics and the published worker list are the driver's health
	// mirror, refreshed at epoch boundaries and recovery events so the
	// HTTP endpoints never read driver-owned state.
	reg           *metrics.Registry
	prof          *metrics.EpochProfiler
	epochIngress  int
	epochBytes    int64
	pubSeq        atomic.Uint64
	pubNow        atomic.Int64
	pubRecoveries atomic.Int64
	pubDegraded   atomic.Bool
	pubWorkers    atomic.Pointer[[]workerRef]
}

// workerRef is one published worker-slot entry behind the health view.
type workerRef struct {
	id   int
	name string
	w    *wconn // nil for an empty (crashed, unrecovered) slot
}

// New builds a coordinator (call Start to listen).
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	cfg.Engine = cfg.Engine.Normalized()
	ecfg := cfg.Engine
	var errs []error
	if err := ecfg.Validate(); err != nil {
		errs = append(errs, err)
	}
	if cfg.Workers < 1 {
		errs = append(errs, fmt.Errorf("cluster: need at least 1 worker, got %d", cfg.Workers))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:        cfg,
		shards:     ecfg.Shards,
		lookahead:  ecfg.Lookahead,
		space:      ecfg.Gateway.Space,
		hash:       configHash(cfg.ConfigTag, ecfg.Shards, ecfg.Seed, ecfg.Lookahead),
		events:     make(chan wevent, 1024),
		standbySig: make(chan struct{}, 1),
		inputs:     make([][]byte, ecfg.Shards),
		inputsNext: sim.End,
	}
	c.workers = min(cfg.Workers, c.shards)
	c.reg = ecfg.Metrics
	if c.reg != nil || ecfg.EpochLog != nil {
		c.prof = metrics.NewEpochProfiler(c.reg, ecfg.EpochLog)
	}
	c.next = make([]sim.Time, c.workers)
	c.donePending = make(map[int]bool, c.workers)
	c.advanceNS = make([]int64, c.workers)
	c.assigned = make([]*wconn, c.workers)
	c.logs = make([]*shardLog, c.shards)
	for i := range c.logs {
		c.logs[i] = &shardLog{}
	}
	return c, nil
}

// Start begins accepting workers.
func (c *Coordinator) Start() error {
	ln, err := net.Listen("tcp", c.cfg.ListenAddr)
	if err != nil {
		return err
	}
	c.ln = ln
	go c.acceptLoop()
	return nil
}

// Addr returns the listen address (useful with ListenAddr ":0").
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// shardsOf lists the global shard indices worker id owns (round-robin,
// like the in-process engine splits farm servers).
func (c *Coordinator) shardsOf(id int) []int {
	var out []int
	for s := id; s < c.shards; s += c.workers {
		out = append(out, s)
	}
	return out
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// recoveryf records one crash-detection / recovery step.
func (c *Coordinator) recoveryf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	c.recLines = append(c.recLines, line)
	if c.cfg.RecoveryLog != nil {
		fmt.Fprintln(c.cfg.RecoveryLog, line)
	}
	c.logf("%s", line)
}

// RecoveryEvents returns every recorded detection/recovery line.
func (c *Coordinator) RecoveryEvents() []string {
	return append([]string(nil), c.recLines...)
}

// Recoveries returns how many worker crashes were recovered.
func (c *Coordinator) Recoveries() int { return c.recoveries }

// Err returns the terminal error, if the run degraded.
func (c *Coordinator) Err() error { return c.err }

func (c *Coordinator) fail(err error) {
	if c.err == nil {
		c.err = err
		c.pubDegraded.Store(true)
		c.recoveryf("event=degraded err=%q", err.Error())
	}
}

// acceptLoop admits workers: handshake, then the connection becomes a
// standby (WaitReady and crash recovery both draw from the pool).
func (c *Coordinator) acceptLoop() {
	for {
		nc, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go c.handshake(nc)
	}
}

func (c *Coordinator) handshake(nc net.Conn) {
	w := &wconn{conn: newConn(nc), id: -1, stop: make(chan struct{})}
	w.lastRecv.Store(time.Now().UnixNano())
	nc.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
	fr, err := readFrame(nc)
	if err != nil || fr.typ != msgHello {
		nc.Close()
		return
	}
	var hello helloMsg
	if err := unmarshal(fr.payload, &hello); err != nil {
		nc.Close()
		return
	}
	if hello.Version != ProtoVersion || hello.ConfigHash != c.hash {
		c.logf("cluster: rejecting worker %q: version=%d hash=%#x (want %d/%#x)",
			hello.Name, hello.Version, hello.ConfigHash, ProtoVersion, c.hash)
		w.send(msgError, errorMsg{Text: fmt.Sprintf(
			"cluster: version/config mismatch: coordinator v%d hash %#x, worker v%d hash %#x",
			ProtoVersion, c.hash, hello.Version, hello.ConfigHash)})
		nc.Close()
		return
	}
	w.name = hello.Name
	c.logf("cluster: worker %q connected from %v", w.name, nc.RemoteAddr())

	c.mu.Lock()
	c.standby = append(c.standby, w)
	c.mu.Unlock()
	select {
	case c.standbySig <- struct{}{}:
	default:
	}

	go c.heartbeatLoop(w)
	c.readLoop(w)
}

// readLoop pumps decoded frames onto the coordinator's event stream.
// Heartbeats refresh the read deadline and unload their telemetry
// piggyback (epoch progress + registry snapshot) into the connection's
// atomic mirrors without ever reaching the driver.
func (c *Coordinator) readLoop(w *wconn) {
	for {
		w.c.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
		fr, err := readFrame(w.c)
		if err != nil {
			c.events <- wevent{w: w, err: err}
			return
		}
		w.lastRecv.Store(time.Now().UnixNano())
		if fr.typ == msgHeartbeat {
			var hb heartbeatMsg
			if unmarshal(fr.payload, &hb) == nil {
				w.lastSeq.Store(hb.Seq)
				if hb.Metrics != nil {
					w.lastMetrics.Store(&hb.Metrics)
				}
			}
			continue
		}
		c.events <- wevent{w: w, fr: fr}
	}
}

func (c *Coordinator) heartbeatLoop(w *wconn) {
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if err := w.send(msgHeartbeat, struct{}{}); err != nil {
				// Close the socket so the read loop surfaces the death.
				w.close()
				return
			}
		}
	}
}

// markDead retires a connection: the heartbeat sender stops, the socket
// closes, and an assigned slot empties (recovery fills it).
func (c *Coordinator) markDead(w *wconn, reason string) {
	if w.dead {
		return
	}
	w.dead = true
	close(w.stop)
	w.close()
	if w.id >= 0 && c.assigned[w.id] == w {
		c.assigned[w.id] = nil
		if !c.closed { // deliberate shutdown is not a crash
			c.recoveryf("epoch=%d t=%s event=crash-detected worker=%d name=%q shards=%v reason=%q",
				c.seq, c.now(), w.id, w.name, c.shardsOf(w.id), reason)
		}
	}
}

// nextEvent pops one event, or false on deadline.
func (c *Coordinator) nextEvent(deadline time.Time) (wevent, bool) {
	select {
	case ev := <-c.events:
		return ev, true
	default:
	}
	wait := time.Until(deadline)
	if wait <= 0 {
		return wevent{}, false
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case ev := <-c.events:
		return ev, true
	case <-t.C:
		return wevent{}, false
	}
}

// processEvent handles bookkeeping events (deaths, epoch completions,
// worker-fatal errors); frames the caller should match are returned.
func (c *Coordinator) processEvent(ev wevent) (frame, bool) {
	if ev.w.dead {
		return frame{}, false
	}
	if ev.err != nil {
		c.markDead(ev.w, ev.err.Error())
		return frame{}, false
	}
	switch ev.fr.typ {
	case msgError:
		var em errorMsg
		unmarshal(ev.fr.payload, &em)
		c.markDead(ev.w, "worker error: "+em.Text)
		return frame{}, false
	case msgEpochDone:
		c.handleEpochDone(ev.w, ev.fr.payload)
		return frame{}, false
	}
	return ev.fr, true
}

// handleEpochDone records a worker's epoch completion: its outbox and
// its next event (a report decodeEpochDone rejects is a protocol
// violation, treated as death).
func (c *Coordinator) handleEpochDone(w *wconn, payload []byte) {
	if w.id < 0 || c.assigned[w.id] != w || !c.donePending[w.id] {
		return // stale completion from a retired epoch or connection
	}
	m, err := decodeEpochDone(payload, c.shards, c.shardsOf(w.id), c.curEnd)
	if err != nil {
		c.markDead(w, "bad epoch-done: "+err.Error())
		return
	}
	if m.Seq != c.seq {
		return
	}
	c.doneOutbox = append(c.doneOutbox, m.Outbox...)
	c.next[w.id] = m.Next
	delete(c.donePending, w.id)
	c.advanceNS[w.id] = time.Since(c.dispatched).Nanoseconds()
}

// awaitFrom waits for a specific frame type from a specific worker,
// processing unrelated events (deaths, epoch completions) as they
// arrive. Returns an error on the worker's death or the deadline.
func (c *Coordinator) awaitFrom(w *wconn, typ msgType, deadline time.Time) (frame, error) {
	for {
		for i, fr := range w.stash {
			if fr.typ == typ {
				w.stash = append(w.stash[:i], w.stash[i+1:]...)
				w.stashN.Store(int64(len(w.stash)))
				return fr, nil
			}
		}
		if w.dead {
			return frame{}, fmt.Errorf("cluster: worker %q died awaiting %v", w.name, typ)
		}
		ev, ok := c.nextEvent(deadline)
		if !ok {
			return frame{}, fmt.Errorf("cluster: timed out awaiting %v from worker %q", typ, w.name)
		}
		fr, match := c.processEvent(ev)
		if !match {
			continue
		}
		if ev.w == w && fr.typ == typ {
			return fr, nil
		}
		// A reply meant for a different pending await (broadcasts
		// complete out of order) — keep it for its own connection
		// rather than dropping it on the floor.
		ev.w.stash = append(ev.w.stash, fr)
		ev.w.stashN.Store(int64(len(ev.w.stash)))
	}
}

// waitStandby pulls the next live standby connection, draining events
// while it waits. Returns nil at the deadline.
func (c *Coordinator) waitStandby(deadline time.Time) *wconn {
	for {
		c.mu.Lock()
		for len(c.standby) > 0 {
			w := c.standby[0]
			c.standby = c.standby[1:]
			if !w.dead {
				c.mu.Unlock()
				return w
			}
		}
		c.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil
		}
		t := time.NewTimer(wait)
		select {
		case <-c.standbySig:
		case ev := <-c.events:
			c.processEvent(ev)
		case <-t.C:
			t.Stop()
			return nil
		}
		t.Stop()
	}
}

// WaitReady blocks until every worker slot is assigned, warmed up, and
// aligned on a common base clock, then builds the epoch runner; the run
// may then be driven through Inject, Replay and RunFor. The timeout
// falls back to Config.AcceptTimeout.
func (c *Coordinator) WaitReady(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = c.cfg.AcceptTimeout
	}
	deadline := time.Now().Add(timeout)

	assign := func(id int) (*wconn, sim.Time, error) {
		for {
			w := c.waitStandby(deadline)
			if w == nil {
				return nil, 0, fmt.Errorf("cluster: worker slot %d: no worker connected in time", id)
			}
			msg := assignMsg{
				Worker: id, Shards: c.shardsOf(id),
				WarmupNs: int64(c.cfg.SnapshotWarmup), SnapName: c.cfg.SnapshotName,
				Events: c.cfg.Engine.EventLog != nil, Trace: c.cfg.Engine.TraceOut != nil,
				Metrics: c.reg != nil,
			}
			if err := w.send(msgAssign, msg); err != nil {
				c.markDead(w, "assign write: "+err.Error())
				continue
			}
			w.id = id
			c.assigned[id] = w
			fr, err := c.awaitFrom(w, msgPrepared, deadline)
			if err != nil {
				c.markDead(w, err.Error())
				c.assigned[id] = nil
				continue
			}
			var p preparedMsg
			if err := unmarshal(fr.payload, &p); err != nil {
				c.markDead(w, "bad prepared reply")
				c.assigned[id] = nil
				continue
			}
			c.logf("cluster: worker %d (%q) prepared shards %v, clock %v", id, w.name, msg.Shards, p.Clock)
			return w, p.Clock, nil
		}
	}

	for id := 0; id < c.workers; id++ {
		_, clock, err := assign(id)
		if err != nil {
			c.fail(err)
			return err
		}
		if clock > c.base {
			c.base = clock
		}
	}
	// Align every worker on the common base and wait for readiness.
	for id := 0; id < c.workers; id++ {
		w := c.assigned[id]
		if err := w.send(msgAlign, alignMsg{Base: c.base}); err != nil {
			c.markDead(w, "align write: "+err.Error())
		}
	}
	for id := 0; id < c.workers; id++ {
		w := c.assigned[id]
		if w == nil {
			err := fmt.Errorf("cluster: worker %d died during alignment", id)
			c.fail(err)
			return err
		}
		fr, err := c.awaitFrom(w, msgReady, deadline)
		var m readyMsg
		if err == nil {
			err = unmarshal(fr.payload, &m)
		}
		if err == nil && m.Next < c.base {
			err = fmt.Errorf("cluster: worker %d next event at %v is before the base clock %v", id, m.Next, c.base)
		}
		if err != nil {
			c.fail(err)
			return err
		}
		c.next[id] = m.Next
	}
	for _, l := range c.logs {
		l.through = c.base
	}
	c.runner = sim.NewRunner(c, c.base, c.lookahead)
	c.runner.SetAdaptive(c.cfg.Engine.AdaptiveEpochs)
	if c.prof != nil {
		c.runner.SetEpochObserver(func(s sim.EpochStats) {
			c.prof.Record(core.EpochSample(s, c.epochIngress, c.epochBytes))
			c.epochIngress = 0
		})
	}
	c.publishHealth()
	c.logf("cluster: %d workers ready, %d shards, base clock %v", c.workers, c.shards, c.base)
	return nil
}

// now is the barrier clock: the aligned base until the runner exists.
func (c *Coordinator) now() sim.Time {
	if c.runner == nil {
		return c.base
	}
	return c.runner.Now()
}

// started reports whether WaitReady has built the runner; driving the
// cluster before that is recorded as the terminal error.
func (c *Coordinator) started() bool {
	if c.runner == nil {
		c.fail(errors.New("cluster: run before WaitReady"))
		return false
	}
	return true
}

// RunFor advances every worker by d. On worker death it recovers onto a
// standby; if recovery is impossible it stops advancing and records the
// terminal error (Err).
func (c *Coordinator) RunFor(d time.Duration) {
	if c.started() {
		c.runner.RunFor(d)
	}
}

// scheduleRecord routes a telescope record to its owning shard's inputs
// for the epoch being opened (Replay's pre-epoch hook).
func (c *Coordinator) scheduleRecord(at sim.Time, rec telescope.Record) {
	s := core.OwnerOf(c.space, c.shards, rec.Dst)
	c.inputs[s] = appendRecord(c.inputs[s], at, rec)
	c.epochIngress++
}

// Inject schedules pkt for delivery to its owning shard at the barrier
// clock, through the opening barrier of the next epoch: behind the
// cross-shard deliveries already due there, ahead of freshly fed
// records. ShardEngine.InjectBarrier is the single-process equivalent
// with identical event ordering — use that as the oracle when comparing
// runs. Call between runs, after WaitReady (driver goroutine).
func (c *Coordinator) Inject(pkt *netsim.Packet) {
	if c.started() {
		now := c.runner.Now()
		s := core.OwnerOf(c.space, c.shards, pkt.Dst)
		c.inputs[s] = appendCross(c.inputs[s], now, pkt)
		c.inputsNext = min(c.inputsNext, now)
	}
}

// Replay streams src through the cluster with the exact semantics of
// ShardEngine.Replay. Returns packets injected and the first error
// (source error, or the coordinator's terminal error).
func (c *Coordinator) Replay(src telescope.Source, halt func() bool, epilogue time.Duration) (int, error) {
	if !c.started() {
		return 0, c.err
	}
	n, err := core.ReplayOver(c.runner, src, halt, epilogue, c.scheduleRecord)
	if err == nil {
		err = c.err
	}
	return n, err
}

// Exchange stages the cross-shard outboxes the last epoch returned as
// inputs of the epoch about to open and returns how many packets it
// staged (sim.Transport).
func (c *Coordinator) Exchange() int {
	n := len(c.pendingCross)
	for _, e := range c.pendingCross {
		c.inputs[e.Dst] = appendCrossRaw(c.inputs[e.Dst], e.At, e.Pkt)
		c.inputsNext = min(c.inputsNext, e.At)
	}
	c.pendingCross = c.pendingCross[:0]
	return n
}

// NextEvent is the earliest of the staged inputs and every worker's next
// event as it last reported it (sim.Transport).
func (c *Coordinator) NextEvent() sim.Time {
	h := c.inputsNext
	for _, t := range c.next {
		h = min(h, t)
	}
	return h
}

// Advance runs the epoch [Now, end) on every worker (sim.Transport),
// recovering a dead one onto a standby, then logs the inputs and keeps
// the outboxes for the next Exchange. It returns each worker's
// dispatch-to-done wall time, or false once the run has degraded (Err).
func (c *Coordinator) Advance(end sim.Time, timed bool) ([]int64, bool) {
	if c.err != nil {
		return nil, false
	}
	start := c.runner.Now()
	if c.cfg.OnEpoch != nil {
		c.cfg.OnEpoch(c.seq, start, end)
	}
	// Fill worker slots emptied by deaths noticed between epochs.
	for id := 0; id < c.workers; id++ {
		if c.assigned[id] == nil {
			if !c.recover(id, false) {
				return nil, false
			}
		}
	}

	c.curEnd = end
	c.doneOutbox = c.doneOutbox[:0]
	c.epochBytes = 0
	for _, in := range c.inputs {
		c.epochBytes += int64(len(in))
	}
	c.dispatched = time.Now()
	for id := 0; id < c.workers; id++ {
		c.donePending[id] = true
		c.sendEpoch(id)
	}

	deadline := time.Now().Add(c.cfg.EpochTimeout)
	for len(c.donePending) > 0 {
		// Recover any pending worker whose connection died; the
		// replacement replays its checkpoint and reruns this epoch.
		for id := range c.donePending {
			if c.assigned[id] == nil {
				if !c.recover(id, true) {
					return nil, false
				}
			}
		}
		ev, ok := c.nextEvent(deadline)
		if !ok {
			for id := range c.donePending {
				if w := c.assigned[id]; w != nil {
					c.markDead(w, "epoch timeout")
				}
			}
			deadline = time.Now().Add(c.cfg.EpochTimeout)
			continue
		}
		c.processEvent(ev)
	}

	for s, in := range c.inputs {
		c.logs[s].commit(start, end, in)
		c.inputs[s] = nil // the log owns it now
	}
	c.inputsNext = sim.End
	// Stable sort restores the global (source shard, send order)
	// delivery order the in-process runner's exchange produces: each
	// worker reports its outbox grouped by source shard in send order,
	// and source shards are disjoint across workers.
	sort.SliceStable(c.doneOutbox, func(i, j int) bool { return c.doneOutbox[i].Src < c.doneOutbox[j].Src })
	c.pendingCross, c.doneOutbox = c.doneOutbox, c.pendingCross
	c.seq++
	c.publishHealth()
	return c.advanceNS, true
}

// publishHealth refreshes the atomic mirror the HTTP /cluster endpoint
// reads: run progress plus the current worker-slot assignments. Driver
// goroutine only; called at every epoch boundary and recovery.
func (c *Coordinator) publishHealth() {
	c.pubSeq.Store(c.seq)
	c.pubNow.Store(int64(c.now()))
	c.pubRecoveries.Store(int64(c.recoveries))
	c.pubDegraded.Store(c.err != nil)
	refs := make([]workerRef, c.workers)
	for id := 0; id < c.workers; id++ {
		refs[id] = workerRef{id: id, w: c.assigned[id]}
		if w := c.assigned[id]; w != nil {
			refs[id].name = w.name
		}
	}
	c.pubWorkers.Store(&refs)
}

// sendEpoch ships the in-flight epoch to worker id (its shards' inputs
// only). A write failure marks the connection dead; the await loop
// recovers it.
func (c *Coordinator) sendEpoch(id int) {
	w := c.assigned[id]
	if w == nil {
		return
	}
	msg := epochMsg{Seq: c.seq, Start: c.runner.Now(), End: c.curEnd}
	for _, s := range c.shardsOf(id) {
		if len(c.inputs[s]) > 0 {
			msg.Inputs = append(msg.Inputs, shardInputs{Shard: s, Inputs: c.inputs[s]})
		}
	}
	if err := w.send(msgEpoch, msg); err != nil {
		c.markDead(w, "epoch write: "+err.Error())
	}
}

// recover restores worker id's shards onto a standby (or a restarted
// worker dialing back in) from the last epoch-boundary checkpoint.
// resend re-ships the in-flight epoch after the restore. False means no
// replacement appeared in time and the run has degraded.
func (c *Coordinator) recover(id int, resend bool) bool {
	c.recoveries++
	shards := c.shardsOf(id)
	cks := make([][]byte, len(shards))
	epochs := 0
	for i, s := range shards {
		ck := c.logs[s].checkpoint(s, c.shards, c.cfg.Engine.Seed, c.hash, c.base)
		epochs += len(ck.Epochs)
		cks[i] = ck.Encode()
	}
	c.recoveryf("epoch=%d t=%s event=restore-begin worker=%d shards=%v logged_epochs=%d resend=%v",
		c.seq, c.now(), id, shards, epochs, resend)

	deadline := time.Now().Add(c.cfg.RecoveryWait)
	for {
		w := c.waitStandby(deadline)
		if w == nil {
			c.fail(fmt.Errorf("cluster: worker %d (shards %v) crashed at epoch %d and no replacement connected within %v",
				id, shards, c.seq, c.cfg.RecoveryWait))
			return false
		}
		msg := restoreMsg{
			Worker: id, Shards: shards,
			WarmupNs: int64(c.cfg.SnapshotWarmup), SnapName: c.cfg.SnapshotName,
			Events: c.cfg.Engine.EventLog != nil, Trace: c.cfg.Engine.TraceOut != nil,
			Metrics: c.reg != nil,
			Base:    c.base, Seq: c.seq, Checkpoints: cks,
		}
		if err := w.send(msgRestore, msg); err != nil {
			c.markDead(w, "restore write: "+err.Error())
			continue
		}
		w.id = id
		c.assigned[id] = w
		if _, err := c.awaitFrom(w, msgReady, time.Now().Add(c.cfg.RestoreTimeout)); err != nil {
			c.markDead(w, err.Error())
			c.assigned[id] = nil
			continue
		}
		c.recoveryf("epoch=%d t=%s event=restore-done worker=%d name=%q", c.seq, c.now(), id, w.name)
		c.publishHealth()
		if resend {
			c.sendEpoch(id)
		}
		return true
	}
}

// Results fetches and merges every worker's output in shard order. With
// a degraded run it returns whatever the surviving workers report,
// alongside Err's terminal error.
func (c *Coordinator) Results() (*Results, error) {
	res := &Results{Now: c.now(), Recoveries: c.recoveries}
	perShard := make([]*shardResult, c.shards)
	for id := 0; id < c.workers; id++ {
		w := c.assigned[id]
		if w == nil {
			continue
		}
		if err := w.send(msgResults, struct{}{}); err != nil {
			c.markDead(w, "results write: "+err.Error())
		}
	}
	deadline := time.Now().Add(c.cfg.EpochTimeout)
	for id := 0; id < c.workers; id++ {
		w := c.assigned[id]
		if w == nil {
			continue
		}
		fr, err := c.awaitFrom(w, msgResults, deadline)
		if err != nil {
			c.fail(err)
			continue
		}
		var m resultsMsg
		if err := unmarshal(fr.payload, &m); err != nil {
			c.markDead(w, "bad results: "+err.Error())
			continue
		}
		if m.Metrics != nil {
			// Supersede the heartbeat-lagged snapshot with the final
			// one, so a post-run /metrics scrape equals Results.Metrics.
			w.lastMetrics.Store(&m.Metrics)
			res.Metrics = metrics.MergePoints(res.Metrics, m.Metrics)
		}
		for i := range m.Shards {
			sr := &m.Shards[i]
			if sr.Shard >= 0 && sr.Shard < c.shards {
				perShard[sr.Shard] = sr
			}
		}
	}
	missing := 0
	for _, sr := range perShard {
		if sr == nil {
			missing++
			continue
		}
		res.Gateway.Add(&sr.Gateway)
		res.Farm.Add(&sr.Farm)
		res.Guest.Add(&sr.Guest)
		res.LiveVMs += sr.LiveVMs
		res.InfectedVMs += sr.InfectedVMs
		res.Bindings += sr.Bindings
		res.Memory += sr.Memory
		res.DNSQueries += sr.DNSQueries
		res.FaultLog = append(res.FaultLog, sr.FaultLog...)
		res.Events = append(res.Events, sr.Events...)
		res.Trace = append(res.Trace, sr.Trace...)
	}
	if missing > 0 && c.err == nil {
		c.fail(fmt.Errorf("cluster: results missing for %d of %d shards", missing, c.shards))
	}
	return res, c.err
}

// Close shuts the cluster down: workers receive a shutdown message,
// every connection closes, and the listener stops. Idempotent.
func (c *Coordinator) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	for _, w := range c.assigned {
		if w != nil && !w.dead {
			w.send(msgShutdown, struct{}{})
			c.markDead(w, "shutdown")
		}
	}
	c.mu.Lock()
	standby := append([]*wconn(nil), c.standby...)
	c.standby = nil
	c.mu.Unlock()
	for _, w := range standby {
		if !w.dead {
			w.send(msgShutdown, struct{}{})
			w.dead = true
			close(w.stop)
			w.close()
		}
	}
	if c.ln != nil {
		c.ln.Close()
	}
	if err := c.prof.FlushTimeline(); err != nil {
		c.logf("cluster: epoch timeline: %v", err)
	}
	return nil
}

// MetricsText renders the farm-wide metric view in the Prometheus text
// exposition format: the coordinator's own registry (epoch_* series)
// merged with the latest snapshot each worker piggybacked on its
// heartbeats — or its final results snapshot once the run ended. Safe
// from any goroutine at any time; reads atomics only.
func (c *Coordinator) MetricsText() []byte {
	merged := c.reg.Snapshot()
	if refs := c.pubWorkers.Load(); refs != nil {
		for _, ref := range *refs {
			if ref.w == nil {
				continue
			}
			if pts := ref.w.lastMetrics.Load(); pts != nil {
				merged = metrics.MergePoints(merged, *pts)
			}
		}
	}
	var buf bytes.Buffer
	metrics.WriteProm(&buf, merged)
	return buf.Bytes()
}

// WorkerHealth is one worker slot in the /cluster health view.
type WorkerHealth struct {
	ID      int    `json:"id"`
	Name    string `json:"name,omitempty"`
	Live    bool   `json:"live"`
	LastSeq uint64 `json:"last_seq"`
	// EpochLag is how many epochs the worker's last completion trails
	// the coordinator's dispatched epoch count.
	EpochLag uint64 `json:"epoch_lag"`
	// HeartbeatAgeMs is wall milliseconds since the worker's last frame.
	HeartbeatAgeMs int64 `json:"heartbeat_age_ms"`
	// StashDepth counts out-of-order frames parked for this connection.
	StashDepth int64 `json:"stash_depth"`
}

// ClusterHealth is the /cluster health document.
type ClusterHealth struct {
	Epoch      uint64         `json:"epoch"`
	TSeconds   float64        `json:"t_seconds"`
	Shards     int            `json:"shards"`
	Slots      int            `json:"worker_slots"`
	Recoveries int64          `json:"recoveries"`
	Degraded   bool           `json:"degraded"`
	Workers    []WorkerHealth `json:"workers"`
}

// Health assembles the cluster health view from the driver's published
// mirror. Safe from any goroutine; progress fields refresh at epoch
// boundaries, heartbeat ages are live.
func (c *Coordinator) Health() ClusterHealth {
	h := ClusterHealth{
		Epoch:      c.pubSeq.Load(),
		TSeconds:   sim.Time(c.pubNow.Load()).Seconds(),
		Shards:     c.shards,
		Slots:      c.workers,
		Recoveries: c.pubRecoveries.Load(),
		Degraded:   c.pubDegraded.Load(),
	}
	refs := c.pubWorkers.Load()
	if refs == nil {
		return h
	}
	now := time.Now().UnixNano()
	for _, ref := range *refs {
		wh := WorkerHealth{ID: ref.id, Name: ref.name}
		if ref.w != nil {
			wh.Live = true
			wh.LastSeq = ref.w.lastSeq.Load()
			if h.Epoch > wh.LastSeq {
				wh.EpochLag = h.Epoch - wh.LastSeq
			}
			wh.HeartbeatAgeMs = (now - ref.w.lastRecv.Load()) / 1e6
			wh.StashDepth = ref.w.stashN.Load()
		}
		h.Workers = append(h.Workers, wh)
	}
	return h
}

// HealthJSON renders Health as indented JSON for the /cluster debug
// endpoint.
func (c *Coordinator) HealthJSON() []byte {
	b, err := json.MarshalIndent(c.Health(), "", "  ")
	if err != nil {
		return []byte("{}")
	}
	return b
}
