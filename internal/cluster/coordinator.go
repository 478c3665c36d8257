package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"potemkin/internal/core"
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

	// Heartbeat/deadline knobs (zero takes the default).
	HeartbeatInterval time.Duration // outgoing ping period (1s)
	HeartbeatTimeout  time.Duration // silence that declares a worker dead (5s)
	RecoveryWait      time.Duration // how long to wait for a replacement worker (10s)

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

// replyTimeout bounds the wall time of any one reply: an epoch, a
// recovery's replay, the results. acceptTimeout bounds WaitReady when
// its caller passes no timeout.
const (
	replyTimeout  = 2 * time.Minute
	acceptTimeout = 30 * time.Second
)

func (cfg Config) withDefaults() Config {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.RecoveryWait <= 0 {
		cfg.RecoveryWait = 10 * time.Second
	}
	return cfg
}

// Results is the shard-order merge of every worker's output — the same
// totals, event-log bytes, and trace bytes a single-process run of the
// same scenario produces.
type Results struct {
	// Totals is the sum of every shard's counters, as the engine's
	// Totals sums its domains'.
	core.Totals
	FaultLog   []string
	Events     []byte
	Trace      []byte
	Now        sim.Time
	Recoveries int
}

// wconn is the coordinator's view of one worker connection.
type wconn struct {
	*conn
	name string
	id   int           // assigned worker slot, or -1 while standby
	dead bool          // driver goroutine only
	stop chan struct{} // closed on death; stops the heartbeat sender and the read loop
	// inbox hands the connection's frames, heartbeats aside, from its
	// read loop to the driver, which awaits one reply at a time. It is
	// unbuffered: a frame is stamped when read, not when taken. The read
	// loop closes it when a read fails, after storing the error in readErr.
	inbox   chan arrival
	readErr error

	// Health mirrors, written by the read loop and read by the HTTP
	// health endpoint — atomics only, never the driver state.
	lastRecv atomic.Int64  // wall nanos of the last frame
	lastSeq  atomic.Uint64 // last epoch the worker completed
}

// arrival is one frame off a worker connection, stamped with the time
// it was read.
type arrival struct {
	frame
	at time.Time
}

// Coordinator is the cluster's sim.Transport: it carries each epoch's
// frame to the workers and forwards their outboxes, under the same
// sim.ParallelRunner loop the in-process engine runs. All methods are
// for a single driver goroutine.
type Coordinator struct {
	cfg     Config
	shards  int
	workers int
	space   netsim.Prefix
	hash    uint64

	ln net.Listener

	mu         sync.Mutex // guards standby and closed against the accept goroutines
	standby    []*wconn
	standbySig chan struct{}

	assigned []*wconn
	seq      uint64
	runner   *sim.ParallelRunner // drives the epochs over c; nil until WaitReady

	// inputs holds each worker slot's encoded inputs for the epoch about
	// to open (cross-shard packets from other slots, injected ones,
	// records); inputsNext is the earliest time in them. sent counts the
	// cross-shard packets the last epoch sent, forwarded or co-located,
	// for the next Exchange to report. next is each slot's earliest
	// pending event as it last reported it.
	inputs     [][]byte
	inputsNext sim.Time
	sent       int
	next       []sim.Time

	// In-flight epoch state: each slot's frame, built once and resent
	// unchanged to a recovery. A completed frame joins its slot's log,
	// which a recovery replays.
	frames     [][]byte
	log        [][][]byte
	curEnd     sim.Time
	dispatched time.Time
	advanceNS  []int64

	// progress, when set, observes the run at the barriers pace picks
	// (SetProgress).
	progress func(now sim.Time, t core.Totals)
	pace     core.Pace

	err        error
	recoveries int
	recLines   []string
	closed     bool

	// Telemetry. reg/prof come from Engine.Metrics / Engine.EpochLog;
	// the runner profiles each epoch with workers in the shard role, and
	// view publishes the workers' totals into reg. The pub* atomics and
	// the published worker list are the driver's health mirror, the
	// atomics refreshed at epoch boundaries and the list where a slot is
	// filled or emptied, so the HTTP endpoints never read driver-owned
	// state.
	reg           *metrics.Registry
	view          *core.StatsView
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
		space:      ecfg.Gateway.Space,
		hash:       configHash(cfg.ConfigTag, ecfg.Shards, ecfg.Seed, core.Lookahead),
		standbySig: make(chan struct{}, 1),
		inputsNext: sim.End,
	}
	c.workers = min(cfg.Workers, c.shards)
	c.reg = ecfg.Metrics
	c.view = core.NewStatsView(c.reg, nil)
	if c.reg != nil || ecfg.EpochLog != nil {
		c.prof = metrics.NewEpochProfiler(c.reg, ecfg.EpochLog)
	}
	c.inputs = make([][]byte, c.workers)
	c.next = make([]sim.Time, c.workers)
	c.frames = make([][]byte, c.workers)
	c.log = make([][][]byte, c.workers)
	c.advanceNS = make([]int64, c.workers)
	c.assigned = make([]*wconn, c.workers)
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

// slotOf is the worker slot owning shard s.
func (c *Coordinator) slotOf(s int) int { return s % c.workers }

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

func (c *Coordinator) fail(err error) {
	if c.err == nil {
		c.err = err
		c.recoveryf("event=degraded err=%q", err.Error())
		c.publishProgress()
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
	w := &wconn{conn: newConn(nc), id: -1, stop: make(chan struct{}), inbox: make(chan arrival)}
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
	if c.closed { // arrived while Close ran: nobody will assign or close it
		c.mu.Unlock()
		nc.Close()
		return
	}
	c.standby = append(c.standby, w)
	c.mu.Unlock()
	select {
	case c.standbySig <- struct{}{}:
	default:
	}

	go c.heartbeatLoop(w)
	c.readLoop(w)
}

// readLoop pushes the connection's frames onto its inbox, stamped on
// arrival. Heartbeats refresh the read deadline and unload their epoch
// progress into the connection's atomic mirror without ever reaching
// the driver.
func (c *Coordinator) readLoop(w *wconn) {
	defer close(w.inbox)
	for {
		w.c.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
		fr, err := readFrame(w.c)
		if err != nil {
			w.readErr = err
			return
		}
		at := time.Now()
		w.lastRecv.Store(at.UnixNano())
		if fr.typ == msgHeartbeat {
			var hb heartbeatMsg
			if unmarshal(fr.payload, &hb) == nil {
				w.lastSeq.Store(hb.Seq)
			}
			continue
		}
		select {
		case w.inbox <- arrival{fr, at}:
		case <-w.stop:
			return
		}
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

// markDead retires a connection: the heartbeat sender and the read loop
// stop, the socket closes, and an assigned slot empties (recovery fills
// it) and shows so in the health view.
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
			c.publishSlots()
		}
	}
}

// await returns w's next frame, which must be of type typ, by deadline.
// A frame of another type answers a request the driver gave up on (an
// epoch a degraded run cut short) and is skipped. An error frame, a
// failed read or the deadline marks w dead and returns why.
func (c *Coordinator) await(w *wconn, typ msgType, deadline time.Time) (arrival, error) {
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	var reason string
	for reason == "" {
		select {
		case a, ok := <-w.inbox:
			switch {
			case !ok:
				reason = fmt.Sprintf("connection lost awaiting %v: %v", typ, w.readErr)
			case a.typ == msgError:
				var em errorMsg
				unmarshal(a.payload, &em)
				reason = "worker error: " + em.Text
			case a.typ == typ:
				return a, nil
			}
		case <-t.C:
			reason = fmt.Sprintf("timed out awaiting %v", typ)
		}
	}
	c.markDead(w, reason)
	return arrival{}, fmt.Errorf("cluster: worker %q: %s", w.name, reason)
}

// recordEpochDone keeps w's report on the epoch in flight: its outbox
// entries, forwarded as they are into the next frames of the slots
// owning their destinations, its send count, its next event, and its
// advance time to the report's arrival. A report decodeEpochDone
// rejects is a protocol violation that marks w dead.
func (c *Coordinator) recordEpochDone(w *wconn, a arrival) bool {
	m, err := decodeEpochDone(a.payload, c.shards, c.shardsOf(w.id), c.curEnd)
	if err != nil {
		c.markDead(w, "bad epoch-done: "+err.Error())
		return false
	}
	for _, e := range m.Outbox {
		id := c.slotOf(e.dst)
		c.inputs[id] = append(c.inputs[id], e.raw...)
		c.inputsNext = min(c.inputsNext, e.at)
	}
	c.sent += len(m.Outbox) + m.Colocated
	c.next[w.id] = m.Next
	c.advanceNS[w.id] = a.at.Sub(c.dispatched).Nanoseconds()
	return true
}

// waitStandby pulls the next standby connection, or nil at the deadline.
func (c *Coordinator) waitStandby(deadline time.Time) *wconn {
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	for {
		c.mu.Lock()
		if len(c.standby) > 0 {
			w := c.standby[0]
			c.standby = c.standby[1:]
			c.mu.Unlock()
			return w
		}
		c.mu.Unlock()
		select {
		case <-c.standbySig:
		case <-t.C:
			return nil
		}
	}
}

// assign fills worker slot id with a standby that connects by deadline:
// it sends the assign — followed, for a recovery, by the slot's logged
// epoch frames — and waits for ready. A standby that dies on the way is
// skipped; false means none was left in time.
func (c *Coordinator) assign(id int, recovery bool, deadline time.Time) bool {
	var replay [][]byte
	if recovery {
		replay = c.log[id]
	}
	msg := assignMsg{
		Worker: id, Shards: c.shardsOf(id),
		Events: c.cfg.Engine.EventLog != nil, Trace: c.cfg.Engine.TraceOut != nil,
		Recovery: recovery, Replay: len(replay),
	}
	for {
		w := c.waitStandby(deadline)
		if w == nil {
			return false
		}
		w.id = id
		c.assigned[id] = w
		err := w.send(msgAssign, msg)
		for i := 0; err == nil && i < len(replay); i++ {
			err = w.write(msgEpoch, replay[i])
		}
		if err != nil {
			c.markDead(w, "assign write: "+err.Error())
			continue
		}
		a, err := c.await(w, msgReady, time.Now().Add(replyTimeout))
		if err != nil {
			continue
		}
		var m readyMsg
		if err := unmarshal(a.payload, &m); err != nil || m.Next < c.now() {
			c.markDead(w, fmt.Sprintf("bad ready %s", a.payload))
			continue
		}
		c.next[id] = m.Next
		c.publishSlots()
		c.logf("cluster: worker %d (%q) ready with shards %v", id, w.name, msg.Shards)
		return true
	}
}

// WaitReady blocks until every worker slot is assigned, then builds the
// epoch runner from clock 0; the run may then be driven through Inject,
// Replay and RunFor. A non-positive timeout waits 30s.
func (c *Coordinator) WaitReady(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = acceptTimeout
	}
	deadline := time.Now().Add(timeout)
	for id := 0; id < c.workers; id++ {
		if !c.assign(id, false, deadline) {
			err := fmt.Errorf("cluster: worker slot %d: no worker connected in time", id)
			c.fail(err)
			return err
		}
	}
	c.runner = sim.NewRunner(c, 0, core.Lookahead)
	c.runner.SetAfterEpoch(c.afterEpoch)
	if c.prof != nil {
		c.runner.SetEpochObserver(func(s sim.EpochStats) {
			c.prof.Record(core.EpochSample(s, c.epochIngress, c.epochBytes))
			c.epochIngress = 0
		})
	}
	c.publishProgress()
	c.logf("cluster: %d workers ready, %d shards", c.workers, c.shards)
	return nil
}

// now is the barrier clock: 0 until the runner exists.
func (c *Coordinator) now() sim.Time {
	if c.runner == nil {
		return 0
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
		c.atRest()
	}
}

// scheduleRecord routes a telescope record to its owning shard's slot
// for the epoch being opened (Replay's pre-epoch hook).
func (c *Coordinator) scheduleRecord(at sim.Time, rec telescope.Record) {
	s := core.OwnerOf(c.space, c.shards, rec.Dst)
	id := c.slotOf(s)
	c.inputs[id] = appendRecord(c.inputs[id], s, at, rec)
	c.epochIngress++
}

// Replay streams src through the cluster with the exact semantics of
// ShardEngine.Replay. Returns packets injected and the first error
// (source error, or the coordinator's terminal error).
func (c *Coordinator) Replay(src telescope.Source, halt func() bool, epilogue time.Duration) (int, error) {
	if !c.started() {
		return 0, c.err
	}
	n, err := core.ReplayOver(c.runner, src, halt, epilogue, c.scheduleRecord)
	c.atRest()
	if err == nil {
		err = c.err
	}
	return n, err
}

// SetProgress installs a read-only progress observer, as
// core.ShardEngine.SetProgress does: fn gets the barrier clock and every
// shard's Totals, summed in shard order, at the first epoch barrier at
// or past each multiple of every after the current clock. The epochs
// are the engine's, so the calls are too. every <= 0 or a nil fn
// removes it. Call only between runs.
func (c *Coordinator) SetProgress(every time.Duration, fn func(now sim.Time, t core.Totals)) {
	c.progress = nil
	if every > 0 && fn != nil {
		c.progress, c.pace = fn, core.NewPace(every, c.now())
	}
}

// afterEpoch is the runner's after-epoch hook: at a barrier the
// registry's view or the progress observer is due at, it gathers the
// workers' totals and hands their sum to whichever is. A degraded run
// reports nothing more.
func (c *Coordinator) afterEpoch() {
	now := c.runner.Now()
	publish := c.view.Due(now)
	report := c.progress != nil && c.pace.Due(now)
	if !publish && !report {
		return
	}
	sum, ok := c.gather()
	if !ok {
		return
	}
	if publish {
		c.view.Store(&sum)
	}
	if report {
		c.progress(now, sum)
	}
}

// atRest ends a driving call as core.ShardEngine's end: the registry,
// if any, holds the workers' totals at the clock the call returns at.
func (c *Coordinator) atRest() {
	if c.view == nil || c.err != nil {
		return
	}
	if sum, ok := c.gather(); ok {
		c.view.Store(&sum)
	}
}

// gather asks every worker for its shards' Totals at the barrier and
// returns their sum in shard order. False means a slot's worker is gone
// and no standby took its shards: the run is degraded.
func (c *Coordinator) gather() (core.Totals, bool) {
	perShard := make([]core.Totals, c.shards)
	for id := range c.assigned {
		// A replacement replays the slot's log, this epoch included, and
		// is asked again.
		for !c.shardTotals(id, perShard) {
			if !c.recover(id) {
				return core.Totals{}, false
			}
		}
	}
	var sum core.Totals
	for i := range perShard {
		sum.Add(&perShard[i])
	}
	return sum, true
}

// shardTotals asks worker slot id for its shards' Totals at the barrier
// and stores them by shard in perShard. False means the slot is empty:
// its worker died, answered for shards other than its own, or sent a
// reply that does not decode.
func (c *Coordinator) shardTotals(id int, perShard []core.Totals) bool {
	w := c.assigned[id]
	if w == nil {
		return false
	}
	if err := w.send(msgTotals, struct{}{}); err != nil {
		c.markDead(w, "totals write: "+err.Error())
		return false
	}
	a, err := c.await(w, msgTotals, time.Now().Add(replyTimeout))
	if err != nil {
		return false
	}
	m, err := decodeResults(a.payload)
	if err != nil {
		c.markDead(w, "bad totals: "+err.Error())
		return false
	}
	if !slices.EqualFunc(m.Shards, c.shardsOf(id), func(sr shardResult, s int) bool { return sr.Shard == s }) {
		c.markDead(w, "totals for shards other than its own")
		return false
	}
	for _, sr := range m.Shards {
		perShard[sr.Shard] = sr.Totals
	}
	return true
}

// Exchange returns how many cross-shard packets the last epoch sent
// (sim.Transport): those its epoch-dones forwarded into the frames
// about to open, and those each worker exchanges among its own shards.
func (c *Coordinator) Exchange() int {
	n := c.sent
	c.sent = 0
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

// Advance runs the epoch [Now, end) on every worker (sim.Transport):
// it builds each slot's frame from the staged inputs, awaits each
// slot's epoch-done in slot order, recovering a dead worker onto a
// standby, then logs the frames. It returns each worker's
// dispatch-to-done wall time, or false once the run has degraded (Err).
func (c *Coordinator) Advance(end sim.Time, timed bool) ([]int64, bool) {
	if c.err != nil {
		return nil, false
	}
	start := c.runner.Now()
	if c.cfg.OnEpoch != nil {
		c.cfg.OnEpoch(c.seq, start, end)
	}
	c.curEnd = end
	c.epochBytes = 0
	for id, in := range c.inputs {
		c.epochBytes += int64(len(in))
		c.frames[id] = appendEpoch(nil, c.seq, start, end, in)
		c.inputs[id] = in[:0]
	}
	c.inputsNext = sim.End
	c.dispatched = time.Now()
	for id := range c.assigned {
		c.sendEpoch(id)
	}
	for id := range c.assigned {
		// The replacement replays the slot's log and reruns this epoch.
		for !c.epochDone(id) {
			if !c.recover(id) {
				return nil, false
			}
			c.sendEpoch(id)
		}
	}
	for id, f := range c.frames {
		c.log[id] = append(c.log[id], f)
	}
	c.seq++
	c.publishProgress()
	return c.advanceNS, true
}

// epochDone awaits worker slot id's epoch-done and records it. False
// means the slot is empty: its worker died or broke the barrier.
func (c *Coordinator) epochDone(id int) bool {
	w := c.assigned[id]
	if w == nil {
		return false
	}
	a, err := c.await(w, msgEpochDone, time.Now().Add(replyTimeout))
	return err == nil && c.recordEpochDone(w, a)
}

// publishProgress refreshes the run-progress half of the health mirror
// the HTTP /cluster endpoint reads. Driver goroutine only; called at
// every epoch boundary, so it stores atomics and allocates nothing.
func (c *Coordinator) publishProgress() {
	c.pubSeq.Store(c.seq)
	c.pubNow.Store(int64(c.now()))
	c.pubRecoveries.Store(int64(c.recoveries))
	c.pubDegraded.Store(c.err != nil)
}

// publishSlots publishes the worker-slot assignments, the other half of
// the mirror, where they change: a slot filled (assign) or emptied
// (markDead). Driver goroutine only.
func (c *Coordinator) publishSlots() {
	refs := make([]workerRef, c.workers)
	for id := 0; id < c.workers; id++ {
		refs[id] = workerRef{id: id, w: c.assigned[id]}
		if w := c.assigned[id]; w != nil {
			refs[id].name = w.name
		}
	}
	c.pubWorkers.Store(&refs)
}

// sendEpoch ships the in-flight epoch's frame to worker id. A write
// failure marks the connection dead; the await loop recovers it.
func (c *Coordinator) sendEpoch(id int) {
	w := c.assigned[id]
	if w == nil {
		return
	}
	if err := w.write(msgEpoch, c.frames[id]); err != nil {
		c.markDead(w, "epoch write: "+err.Error())
	}
}

// recover rebuilds worker slot id's shards on a standby (or a restarted
// worker dialing back in) by replaying every epoch frame the slot
// completed. False means no replacement appeared in time and the run
// has degraded.
func (c *Coordinator) recover(id int) bool {
	shards := c.shardsOf(id)
	c.recoveryf("epoch=%d t=%s event=restore-begin worker=%d shards=%v logged_epochs=%d",
		c.seq, c.now(), id, shards, len(c.log[id]))
	if !c.assign(id, true, time.Now().Add(c.cfg.RecoveryWait)) {
		c.fail(fmt.Errorf("cluster: worker %d (shards %v) crashed at epoch %d and no replacement connected within %v",
			id, shards, c.seq, c.cfg.RecoveryWait))
		return false
	}
	c.recoveries++
	c.recoveryf("epoch=%d t=%s event=restore-done worker=%d name=%q", c.seq, c.now(), id, c.assigned[id].name)
	c.publishProgress()
	return true
}

// Results fetches and merges every worker's output in shard order. With
// a degraded run it returns whatever the surviving workers report,
// alongside Err's terminal error.
func (c *Coordinator) Results() (*Results, error) {
	res := &Results{Now: c.now(), Recoveries: c.recoveries}
	perShard := make([]*shardResult, c.shards)
	for _, w := range c.assigned {
		if w == nil {
			continue
		}
		if err := w.send(msgResults, struct{}{}); err != nil {
			c.markDead(w, "results write: "+err.Error())
		}
	}
	deadline := time.Now().Add(replyTimeout)
	for _, w := range c.assigned {
		if w == nil {
			continue
		}
		a, err := c.await(w, msgResults, deadline)
		if err != nil {
			c.fail(err)
			continue
		}
		m, err := decodeResults(a.payload)
		if err != nil {
			c.markDead(w, "bad results: "+err.Error())
			continue
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
		res.Totals.Add(&sr.Totals)
		res.FaultLog = append(res.FaultLog, sr.FaultLog...)
		res.Events = append(res.Events, sr.Events...)
		res.Trace = append(res.Trace, sr.Trace...)
	}
	if missing > 0 && c.err == nil {
		c.fail(fmt.Errorf("cluster: results missing for %d of %d shards", missing, c.shards))
	}
	c.view.Store(&res.Totals)
	return res, c.err
}

// Close shuts the cluster down: workers receive a shutdown message,
// every connection closes, and the listener stops. Idempotent.
func (c *Coordinator) Close() error {
	if c.closed {
		return nil
	}
	c.mu.Lock()
	c.closed = true
	conns := append(c.standby, c.assigned...)
	c.standby = nil
	c.mu.Unlock()
	for _, w := range conns {
		if w != nil && !w.dead {
			w.send(msgShutdown, struct{}{})
			c.markDead(w, "shutdown")
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

// MetricsText renders the coordinator's registry in the Prometheus
// text exposition format: its epoch profile, and the farm's series
// published from the workers' totals at the engine's barriers and at
// Results. Safe from any goroutine at any time; reads atomics only.
func (c *Coordinator) MetricsText() []byte {
	var buf bytes.Buffer
	c.reg.WriteProm(&buf)
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
