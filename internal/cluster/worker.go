package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/metrics"
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
	// where those writers point.
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
	cfg       WorkerConfig
	ecfg      core.ShardEngineConfig
	lookahead time.Duration
	cn        *conn

	id      int
	shards  []int
	domains map[int]*core.ShardDomain
	// local advances the owned domains' kernels, in assignment order, on
	// the engine's in-process transport: on its persistent goroutines
	// when the scenario asks for parallelism, else in turn on the serve
	// goroutine (the bytes are the same either way). Nothing is sent on
	// it: cross-shard packets go through the coordinator. Nil until assigned.
	local *sim.Local[*netsim.Packet]
	// view publishes the domains' Stats into the worker's registry at
	// epoch boundaries (nil without one).
	view *core.StatsView
	// outbox holds each owned shard's cross-shard emissions for the
	// in-flight epoch. Slots are allocated at assignment and the cross
	// closures write through their own slot pointer, so the transport's
	// goroutines never touch the map itself.
	outbox map[int]*[]outboxEntry

	replaying bool
	// killed is atomic: under Parallel every owned domain runs its kill
	// action in the same epoch, so several transport goroutines set it at
	// once.
	killed atomic.Bool

	// metrics is the worker's live registry (one across all owned
	// domains; nil unless the coordinator asked for telemetry). It is
	// an atomic pointer because buildDomains publishes it on the serve
	// goroutine while the heartbeat goroutine snapshots it. lastSeq is
	// the last completed epoch, read by the heartbeat goroutine.
	metrics atomic.Pointer[metrics.Registry]
	lastSeq atomic.Uint64
}

// RunWorker dials the coordinator (bounded retry with backoff), offers
// itself for shard assignment — fresh or restored-from-checkpoint — and
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
		ConfigHash: configHash(w.cfg.ConfigTag, w.ecfg.Shards, w.ecfg.Seed, w.lookahead),
		Name:       w.cfg.Name,
	}
	if err := w.cn.send(msgHello, hello); err != nil {
		return fmt.Errorf("cluster: handshake: %w", err)
	}

	stop := make(chan struct{})
	defer close(stop)
	go w.heartbeatLoop(stop)
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
	ecfg := cfg.Engine.Normalized()
	if err := ecfg.Validate(); err != nil {
		return nil, err
	}
	return &worker{
		cfg: cfg, ecfg: ecfg, lookahead: ecfg.Lookahead,
		id: -1, domains: map[int]*core.ShardDomain{}, outbox: map[int]*[]outboxEntry{},
	}, nil
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
			// Piggyback the live registry snapshot and epoch progress on
			// the liveness ping: the coordinator's farm-wide /metrics and
			// /cluster health view are fed entirely by frames it already
			// needs. Snapshot reads atomics only, so racing the domain
			// goroutines is safe.
			hb := heartbeatMsg{Seq: w.lastSeq.Load(), Metrics: w.metrics.Load().Snapshot()}
			if err := w.cn.send(msgHeartbeat, hb); err != nil {
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
// in-process engine would, with cross-shard emissions serialized into
// the per-shard epoch outbox instead of a runner send.
func (w *worker) buildDomains(m assignMsg) error {
	if len(w.domains) > 0 {
		return errors.New("cluster: worker assigned twice")
	}
	w.id = m.Worker
	w.shards = append([]int(nil), m.Shards...)
	ecfg := w.ecfg
	// The writers only mark that output should be collected; the
	// domains buffer and the coordinator merges. The registry is the
	// worker's own — the coordinator's cannot cross the wire.
	ecfg.EventLog, ecfg.TraceOut, ecfg.Metrics, ecfg.EpochLog = nil, nil, nil, nil
	if m.Events {
		ecfg.EventLog = io.Discard
	}
	if m.Trace {
		ecfg.TraceOut = io.Discard
	}
	if m.Metrics {
		reg := metrics.NewRegistry()
		w.metrics.Store(reg)
		ecfg.Metrics = reg
	}
	var owned []*core.ShardDomain
	var kernels []*sim.Kernel
	for _, s := range w.shards {
		s := s
		slot := new([]outboxEntry)
		w.outbox[s] = slot
		d, err := core.NewShardDomain(ecfg, s, func(now sim.Time, dst int, pkt *netsim.Packet) {
			if w.replaying {
				return // the coordinator already delivered these once
			}
			*slot = append(*slot, outboxEntry{
				Src: s, Dst: dst, At: now.Add(w.lookahead), Pkt: appendPacket(nil, pkt),
			})
		})
		if err != nil {
			return fmt.Errorf("cluster: building shard %d: %w", s, err)
		}
		w.domains[s] = d
		owned = append(owned, d)
		kernels = append(kernels, d.K)
	}
	w.view = core.NewStatsView(ecfg.Metrics, owned)
	w.local = sim.NewLocal[*netsim.Packet](kernels, nil)
	w.local.SetSequential(!ecfg.Parallel)
	return nil
}

// armFaults starts the per-domain fault injectors. The kill hook only
// arms on fresh assignment: restored domains replay any kill action as
// the recorded no-op it is everywhere else, so the fault log stays
// byte-identical without crash-looping the recovery.
func (w *worker) armFaults(withKillHook bool) {
	for _, s := range w.shards {
		d := w.domains[s]
		if d.Fault == nil {
			continue
		}
		if withKillHook {
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
		d.Fault.Start()
	}
}

// handleAssign takes a worker slot: build the owned domains from the
// shared configuration, run every kernel through the common start
// clock, arm faults, and answer ready. A fresh slot carries no
// checkpoints and arms the kill hook. A recovery carries one checkpoint
// per shard and replays it (restore); its kill hook stays unarmed.
func (w *worker) handleAssign(payload []byte) error {
	var m assignMsg
	if err := unmarshal(payload, &m); err != nil {
		return err
	}
	recovery := len(m.Checkpoints) > 0
	if recovery && len(m.Checkpoints) != len(m.Shards) {
		return fmt.Errorf("cluster: assign with %d checkpoints for %d shards", len(m.Checkpoints), len(m.Shards))
	}
	if err := w.buildDomains(m); err != nil {
		return err
	}
	w.local.Advance(w.local.Now(), false)
	w.armFaults(!recovery)
	if recovery {
		if err := w.restore(m.Checkpoints); err != nil {
			return err
		}
	}
	w.logf("cluster: assigned worker %d, shards %v", w.id, w.shards)
	return w.cn.send(msgReady, readyMsg{Next: w.local.NextEvent()})
}

// restore replays a crashed worker's checkpointed epoch inputs onto the
// owned domains, one checkpoint per shard in assignment order — each
// epoch's inputs scheduled while the kernel sits at that epoch's opening
// barrier, reproducing event-heap insertion order — up to the last
// completed boundary. A checkpoint must start at the worker's clock.
func (w *worker) restore(cks [][]byte) error {
	w.replaying = true
	defer func() { w.replaying = false }()
	hash := configHash(w.cfg.ConfigTag, w.ecfg.Shards, w.ecfg.Seed, w.lookahead)
	clock := w.local.Now()
	for i, s := range w.shards {
		ck, err := DecodeCheckpoint(cks[i])
		if err != nil {
			return fmt.Errorf("cluster: shard %d checkpoint: %w", s, err)
		}
		if ck.Shard != s || ck.Shards != w.ecfg.Shards || ck.ConfigHash != hash {
			return fmt.Errorf("cluster: shard %d checkpoint identity mismatch (shard=%d shards=%d)", s, ck.Shard, ck.Shards)
		}
		if ck.Base != clock {
			return fmt.Errorf("cluster: shard %d checkpoint base %v is not the worker's clock %v", s, ck.Base, clock)
		}
		d := w.domains[s]
		for _, ep := range ck.Epochs {
			d.K.RunUntil(ep.Start)
			ins, err := decodeInputs(ep.Inputs)
			if err != nil {
				return fmt.Errorf("cluster: shard %d replay: %w", s, err)
			}
			w.scheduleInputs(d, ins)
			d.K.RunUntil(ep.End)
		}
		d.K.RunUntil(ck.Through)
		w.logf("cluster: restored shard %d through %v (%d logged epochs)", s, ck.Through, len(ck.Epochs))
	}
	return nil
}

// scheduleInputs schedules decoded barrier inputs on a domain's kernel
// in delivery order.
func (w *worker) scheduleInputs(d *core.ShardDomain, ins []input) {
	for _, in := range ins {
		switch in.Kind {
		case inputCross:
			d.Deliver(in.At, in.Pkt)
		case inputRecord:
			d.ScheduleRecord(in.At, &in.Rec)
		}
	}
}

func (w *worker) handleEpoch(payload []byte) error {
	var m epochMsg
	if err := unmarshal(payload, &m); err != nil {
		return err
	}
	if w.local == nil {
		return errors.New("cluster: epoch before assignment")
	}
	if now := w.local.Now(); m.Start < now {
		return fmt.Errorf("cluster: epoch start %v is before the worker's clock %v", m.Start, now)
	}
	for _, si := range m.Inputs {
		d := w.domains[si.Shard]
		if d == nil {
			return fmt.Errorf("cluster: epoch inputs for shard %d this worker does not own", si.Shard)
		}
		ins, err := decodeInputs(si.Inputs)
		if err != nil {
			return fmt.Errorf("cluster: epoch %d shard %d inputs: %w", m.Seq, si.Shard, err)
		}
		for _, in := range ins {
			if in.At < m.Start {
				return fmt.Errorf("cluster: epoch %d input at %v before epoch start %v", m.Seq, in.At, m.Start)
			}
		}
		w.scheduleInputs(d, ins)
	}
	w.local.Advance(m.End, false)
	if w.killed.Load() {
		// Die like the real thing: drop the connection mid-epoch with no
		// farewell; the coordinator's crash detection takes it from here.
		w.cn.close()
		return ErrKilled
	}
	w.view.PublishDue(m.End)
	reply := epochDoneMsg{Seq: m.Seq, Next: w.local.NextEvent()}
	for _, s := range w.shards {
		slot := w.outbox[s]
		reply.Outbox = append(reply.Outbox, *slot...)
		*slot = (*slot)[:0]
	}
	w.lastSeq.Store(m.Seq)
	return w.cn.send(msgEpochDone, reply)
}

// handleResults snapshots stats (pre-close, matching when a
// single-process run reads its facade stats), closes the domains to
// flush open trace spans, and ships everything in one reply.
func (w *worker) handleResults() error {
	var m resultsMsg
	w.view.Publish()
	m.Metrics = w.metrics.Load().Snapshot()
	for _, s := range w.shards {
		d := w.domains[s]
		sr := shardResult{
			Shard:       s,
			Gateway:     d.G.Stats(),
			Farm:        d.F.Stats(),
			Guest:       d.F.GuestTotals(),
			LiveVMs:     d.F.LiveVMs(),
			InfectedVMs: d.F.InfectedVMs(),
			Bindings:    d.G.NumBindings(),
			Memory:      d.F.MemoryInUse(),
			DNSQueries:  d.Resolver.Queries,
		}
		if d.Fault != nil {
			for _, ev := range d.Fault.Log() {
				sr.FaultLog = append(sr.FaultLog, fmt.Sprintf("shard=%d %s", s, ev))
			}
		}
		d.Close()
		if d.EventBuf != nil {
			sr.Events = d.EventBuf.Bytes()
		}
		if d.TraceBuf != nil {
			sr.Trace = d.TraceBuf.Bytes()
		}
		m.Shards = append(m.Shards, sr)
	}
	return w.cn.send(msgResults, m)
}
