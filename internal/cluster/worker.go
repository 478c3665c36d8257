package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
)

// ErrKilled is returned by RunWorker when a fault-injected
// kill-worker action aborts this worker (WorkerConfig.OnKill nil).
var ErrKilled = errors.New("cluster: worker killed by injected fault")

// WorkerConfig parameterizes one worker process (or in-process worker,
// as the tests run them).
type WorkerConfig struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Engine is the shared scenario — the same configuration the
	// coordinator was launched with (SPMD). EventLog and TraceOut serve
	// only as collection markers here: the worker buffers per-domain
	// output and ships it to the coordinator when asked, regardless of
	// where those writers point. CaptureDir and CheckpointDir are the
	// worker's own: it writes its shards' files there.
	Engine core.ShardEngineConfig
	// ConfigTag must match the coordinator's (see Config.ConfigTag).
	ConfigTag string
	// Name identifies the worker in logs and recovery events.
	Name string

	// HeartbeatInterval is the outgoing ping period (default 1s).
	HeartbeatInterval time.Duration

	// OnKill, when non-nil, replaces the default kill behaviour (stop the
	// kernel, close the connection, return ErrKilled). The daemon
	// installs os.Exit so the process dies as abruptly as a SIGKILL.
	OnKill func(worker int)

	// Logf, when non-nil, receives worker progress logging.
	Logf func(format string, args ...any)
}

// Dialing retries dialAttempts times, starting at dialBackoff and
// doubling up to 3s per wait. idleTimeout declares the coordinator dead
// after that much read silence: epochs ship continuously, and the
// coordinator pings while idle.
const (
	dialAttempts = 8
	dialBackoff  = 200 * time.Millisecond
	idleTimeout  = 2 * time.Minute
)

func (cfg WorkerConfig) withDefaults() WorkerConfig {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	return cfg
}

// worker is the run state behind RunWorker.
type worker struct {
	cfg WorkerConfig
	cn  *conn

	id     int
	shards []int
	// domains is indexed by shard, nil where another worker owns it.
	// closed is set once closeDomains has closed them.
	domains []*core.ShardDomain
	closed  bool
	// local is the engine's in-process transport over every shard of the
	// run, hosting the owned domains' kernels: it advances them (on its
	// persistent goroutines when the scenario asks for parallelism, else
	// in turn on the serve goroutine; the bytes are the same either way)
	// and exchanges their packets to each other at the barrier, exactly
	// as the engine does. Packets from other workers' shards are sent
	// from those shards' rows. Nil until assigned.
	local *sim.Local[*netsim.Packet]
	// out holds each owned shard's sends of the in-flight epoch, indexed
	// by shard. Only that shard's goroutine writes its entry.
	out []shardOut
	// replay counts the logged frames a recovery has still to run. Their
	// epoch-dones are dropped: the coordinator forwarded those sends
	// once already.
	replay int
	reply  []byte // the epoch-done payload, reused

	// killed is atomic: under Parallel every owned domain runs its kill
	// action in the same epoch, so several transport goroutines set it at
	// once.
	killed atomic.Bool

	// lastSeq is the last completed epoch, read by the heartbeat
	// goroutine.
	lastSeq atomic.Uint64
}

// RunWorker dials the coordinator (bounded retry with backoff), offers
// itself for shard assignment — fresh or a recovery — and
// serves epochs until shutdown. It returns nil on a clean shutdown,
// ErrKilled when an injected kill-worker fault aborted it, and the
// transport or protocol error otherwise.
func RunWorker(cfg WorkerConfig) error {
	w, err := newWorker(cfg)
	if err != nil {
		return err
	}
	nc, err := w.dial()
	if err != nil {
		return err
	}
	w.cn = newConn(nc)
	defer w.cn.close()

	hello := helloMsg{
		Version:    ProtoVersion,
		ConfigHash: configHash(w.cfg.ConfigTag, w.cfg.Engine.Shards, w.cfg.Engine.Seed, core.Lookahead),
		Name:       w.cfg.Name,
	}
	if err := w.cn.send(msgHello, hello); err != nil {
		return fmt.Errorf("cluster: handshake: %w", err)
	}

	stop := make(chan struct{})
	defer close(stop)
	go w.heartbeatLoop(stop)
	defer w.closeDomains() // after the shard goroutines have ended
	defer func() {
		if w.local != nil {
			w.local.Close() // its shard goroutines end with the worker, however it ends
		}
	}()

	return w.serve()
}

// newWorker validates cfg and returns an unassigned, unconnected worker.
func newWorker(cfg WorkerConfig) (*worker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Engine.Validate(); err != nil {
		return nil, err
	}
	return &worker{cfg: cfg, id: -1}, nil
}

// shardOut is one owned shard's sends of the in-flight epoch: encoded
// cross inputs for other workers' shards, and a count of the packets
// sent to this worker's own.
type shardOut struct {
	remote    []byte
	colocated int
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// dial connects with bounded retry-with-backoff: transient refusals
// while the coordinator boots (or a worker restarts into a running
// cluster) resolve themselves; a persistently absent coordinator is an
// error, not a hang.
func (w *worker) dial() (net.Conn, error) {
	backoff := dialBackoff
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > 3*time.Second {
				backoff = 3 * time.Second
			}
		}
		nc, err := net.DialTimeout("tcp", w.cfg.Addr, 5*time.Second)
		if err == nil {
			return nc, nil
		}
		lastErr = err
		w.logf("cluster: dial %s attempt %d/%d: %v", w.cfg.Addr, attempt+1, dialAttempts, err)
	}
	return nil, fmt.Errorf("cluster: dialing coordinator %s: %w", w.cfg.Addr, lastErr)
}

func (w *worker) heartbeatLoop(stop chan struct{}) {
	t := time.NewTicker(w.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// Piggyback epoch progress on the liveness ping for the
			// coordinator's /cluster health view.
			if err := w.cn.send(msgHeartbeat, heartbeatMsg{Seq: w.lastSeq.Load()}); err != nil {
				return
			}
		}
	}
}

// serve is the worker's message loop.
func (w *worker) serve() error {
	for {
		w.cn.c.SetReadDeadline(time.Now().Add(idleTimeout))
		fr, err := readFrame(w.cn.c)
		if err != nil {
			if w.killed.Load() {
				return ErrKilled
			}
			return fmt.Errorf("cluster: coordinator connection: %w", err)
		}
		switch fr.typ {
		case msgHeartbeat:
			continue
		case msgAssign:
			err = w.handleAssign(fr.payload)
		case msgEpoch:
			err = w.handleEpoch(fr.payload)
		case msgResults:
			err = w.handleResults()
		case msgTotals:
			err = w.handleTotals()
		case msgShutdown:
			return nil
		case msgError:
			var em errorMsg
			unmarshal(fr.payload, &em)
			return fmt.Errorf("cluster: coordinator: %s", em.Text)
		default:
			err = fmt.Errorf("cluster: unexpected %v message", fr.typ)
		}
		if err != nil {
			if errors.Is(err, ErrKilled) {
				return ErrKilled
			}
			w.cn.send(msgError, errorMsg{Text: err.Error()})
			return err
		}
	}
}

// buildDomains constructs the owned shard domains exactly as the
// in-process engine would, over a transport of all the run's shards: a
// packet for an owned shard is sent on it, one for another worker's is
// encoded into the source shard's outbox.
func (w *worker) buildDomains(m assignMsg) error {
	if w.local != nil {
		return errors.New("cluster: worker assigned twice")
	}
	n := w.cfg.Engine.Shards
	w.id = m.Worker
	w.shards = append([]int(nil), m.Shards...)
	w.domains = make([]*core.ShardDomain, n)
	w.out = make([]shardOut, n)
	ecfg := w.cfg.Engine
	// The writers only mark that output should be collected; the
	// domains buffer and the coordinator merges. The farm's telemetry is
	// the coordinator's, published from the totals the worker answers.
	ecfg.EventLog, ecfg.TraceOut, ecfg.Metrics, ecfg.EpochLog = nil, nil, nil, nil
	if m.Events {
		ecfg.EventLog = io.Discard
	}
	if m.Trace {
		ecfg.TraceOut = io.Discard
	}
	kernels := make([]*sim.Kernel, n)
	for _, s := range w.shards {
		if s < 0 || s >= n || w.domains[s] != nil {
			return fmt.Errorf("cluster: assigned shard %d of %d twice or out of range", s, n)
		}
		out := &w.out[s]
		d, err := core.NewShardDomain(ecfg, s, func(now sim.Time, dst int, pkt *netsim.Packet) {
			at := now.Add(core.Lookahead)
			if w.domains[dst] != nil {
				w.local.Send(s, dst, at, pkt)
				out.colocated++
			} else {
				out.remote = appendCross(out.remote, s, dst, at, pkt)
			}
		})
		if err != nil {
			w.closeDomains() // a failed build leaves no file open or unflushed
			return fmt.Errorf("cluster: building shard %d: %w", s, err)
		}
		w.domains[s] = d
		kernels[s] = d.K
	}
	w.local = sim.NewLocal(kernels, func(dst int, at sim.Time, pkt *netsim.Packet) {
		w.domains[dst].Deliver(at, pkt)
	})
	w.local.SetSequential(!ecfg.Parallel)
	return nil
}

// armKillHook hooks the per-domain fault injectors, whose scripts
// NewShardDomain scheduled, into this process: a kill action naming this
// worker stops it. Only a fresh assignment arms it: a recovery replays
// any kill action as the recorded no-op it is everywhere else, so the
// fault log stays byte-identical without crash-looping the recovery.
func (w *worker) armKillHook() {
	for _, s := range w.shards {
		d := w.domains[s]
		if d.Fault == nil {
			continue
		}
		d.Fault.OnKillWorker = func(now sim.Time, target int) {
			if target != w.id {
				return
			}
			if w.cfg.OnKill != nil {
				w.cfg.OnKill(target)
				return
			}
			// Stop this kernel where it stands; handleEpoch drops the
			// connection once the epoch's advance returns.
			w.killed.Store(true)
			d.K.Stop()
			w.logf("cluster: worker %d killed by injected fault at %v", target, now)
		}
	}
}

// handleAssign takes a worker slot: build the owned domains from the
// shared configuration, arm the kill hook (a fresh slot only), run
// every kernel through the common start clock, and answer ready. A
// recovery answers ready only once the Replay logged epoch frames that
// follow the assign have run.
func (w *worker) handleAssign(payload []byte) error {
	var m assignMsg
	if err := unmarshal(payload, &m); err != nil {
		return err
	}
	if m.Replay < 0 || m.Replay > 0 && !m.Recovery {
		return fmt.Errorf("cluster: assign replaying %d frames (recovery %v)", m.Replay, m.Recovery)
	}
	if err := w.buildDomains(m); err != nil {
		return err
	}
	if !m.Recovery {
		w.armKillHook() // before the start clock runs, so a kill at 0 lands
	}
	w.local.Advance(w.local.Now(), false)
	w.replay = m.Replay
	w.logf("cluster: assigned worker %d, shards %v, replaying %d frames", w.id, w.shards, w.replay)
	if w.replay > 0 {
		return nil
	}
	return w.ready()
}

// ready reports the worker's earliest pending event.
func (w *worker) ready() error {
	return w.cn.send(msgReady, readyMsg{Next: w.local.NextEvent()})
}

// handleEpoch runs one epoch frame and answers epoch-done — or, for a
// recovery's logged frame, nothing until the last, which answers ready:
// a replay drops only the sends to other workers' shards, and the
// co-located ones rebuild the traffic the dead worker's shards had sent
// each other.
func (w *worker) handleEpoch(payload []byte) error {
	if w.local == nil {
		return errors.New("cluster: epoch before assignment")
	}
	m, err := decodeEpoch(payload, w.cfg.Engine.Shards)
	if err != nil {
		return fmt.Errorf("cluster: epoch frame: %w", err)
	}
	if err := w.runEpoch(m); err != nil {
		return err
	}
	if w.killed.Load() {
		// Die like the real thing: drop the connection mid-epoch with no
		// farewell; the coordinator's crash detection takes it from here.
		w.cn.close()
		return ErrKilled
	}
	colocated := 0
	for _, s := range w.shards {
		colocated += w.out[s].colocated
	}
	w.reply = appendEpochDone(w.reply[:0], m.Seq, w.local.NextEvent(), colocated)
	for _, s := range w.shards {
		out := &w.out[s]
		w.reply = append(w.reply, out.remote...)
		out.remote, out.colocated = out.remote[:0], 0
	}
	if w.replay > 0 {
		if w.replay--; w.replay > 0 {
			return nil
		}
		w.logf("cluster: worker %d replayed through %v", w.id, m.End)
		return w.ready()
	}
	w.lastSeq.Store(m.Seq)
	return w.cn.write(msgEpochDone, w.reply)
}

// runEpoch runs one epoch the engine's way: the packets other workers'
// shards sent are exchanged with the owned shards' own, then injected
// packets and records are scheduled in frame order, and the kernels
// advance to the epoch's end. A frame opening before the worker's
// clock, an input before the epoch, for a shard the worker does not
// own, or sent by one it does is an error.
func (w *worker) runEpoch(m epochMsg) error {
	if now := w.local.Now(); m.Start < now {
		return fmt.Errorf("cluster: epoch start %v is before the worker's clock %v", m.Start, now)
	}
	for _, in := range m.Inputs {
		switch {
		case in.At < m.Start:
			return fmt.Errorf("cluster: epoch %d input at %v before epoch start %v", m.Seq, in.At, m.Start)
		case w.domains[in.Dst] == nil:
			return fmt.Errorf("cluster: epoch %d input for shard %d this worker does not own", m.Seq, in.Dst)
		case in.Kind == inputCross && w.domains[in.Src] != nil:
			return fmt.Errorf("cluster: epoch %d cross input from shard %d this worker owns", m.Seq, in.Src)
		}
	}
	for _, in := range m.Inputs {
		if in.Kind == inputCross {
			w.local.Send(in.Src, in.Dst, in.At, in.Pkt)
		}
	}
	w.local.Exchange()
	for i := range m.Inputs {
		switch in := &m.Inputs[i]; in.Kind {
		case inputInject:
			w.domains[in.Dst].Deliver(in.At, in.Pkt)
		case inputRecord:
			w.domains[in.Dst].ScheduleRecord(in.At, &in.Rec)
		}
	}
	w.local.Advance(m.End, false)
	return nil
}

// handleTotals answers a totals request with the owned shards'
// counters and histograms, in shard order. The coordinator asks only at
// a barrier, once the worker is ready.
func (w *worker) handleTotals() error {
	if w.local == nil || w.replay > 0 {
		return errors.New("cluster: totals before ready")
	}
	var m resultsMsg
	for _, s := range w.shards {
		m.Shards = append(m.Shards, shardResult{Shard: s, Totals: w.domains[s].Totals()})
	}
	return w.cn.send(msgTotals, m)
}

// handleResults reads the totals before closing the domains, as a
// single-process run reads its facade stats (closing finishes the open
// spans and closes the shard's capture files), and ships them with the
// flushed output in one reply.
func (w *worker) handleResults() error {
	var m resultsMsg
	for _, s := range w.shards {
		d := w.domains[s]
		sr := shardResult{Shard: s, Totals: d.Totals()}
		if d.Fault != nil {
			for _, ev := range d.Fault.Log() {
				sr.FaultLog = append(sr.FaultLog, fmt.Sprintf("shard=%d %s", s, ev))
			}
		}
		m.Shards = append(m.Shards, sr)
	}
	w.closeDomains()
	for i, s := range w.shards {
		d := w.domains[s]
		if d.EventBuf != nil {
			m.Shards[i].Events = d.EventBuf.Bytes()
		}
		if d.TraceBuf != nil {
			m.Shards[i].Trace = d.TraceBuf.Bytes()
		}
	}
	return w.cn.send(msgResults, m)
}

// closeDomains closes the owned domains, once, however the worker ends:
// at its results, on a failed build, or when RunWorker returns on a lost
// connection, a kill or a shutdown. Closing flushes and closes each
// shard's capture files. A shard's file error is the worker's to log:
// the files are on its host.
func (w *worker) closeDomains() {
	if w.closed {
		return
	}
	w.closed = true
	for _, s := range w.shards {
		if d := w.domains[s]; d != nil {
			if err := d.Close(); err != nil {
				w.logf("cluster: worker %d shard %d: %v", w.id, s, err)
			}
		}
	}
}
