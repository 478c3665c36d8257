// Package cluster distributes core.ShardEngine domains across worker
// processes. The coordinator is a sim.Transport over TCP: the epoch loop
// is the same sim.ParallelRunner the in-process engine runs, so epoch
// bounds, adaptive widening and replay feeding are one code path
// whether the shards live on goroutines or in other processes; with the
// same configuration and seed the merged stats, event log, and trace
// bytes are identical to a single-process sequential run.
//
// Robustness is the point of the package: every worker connection
// carries heartbeats with deadlines, dial/handshake retries with
// bounded backoff, and the coordinator detects a crashed worker (EOF,
// missed heartbeat, stalled epoch, or a fault-injected kill via
// internal/fault), replays the epoch frames its slot completed onto a
// standby or restarted worker, and resumes the run —
// or, when no replacement appears, fails cleanly with partial results
// instead of hanging the barrier. See DESIGN.md "Cluster execution".
package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"net"
	"slices"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// ProtoVersion is bumped on any wire-format change; coordinator and
// worker refuse to pair across versions. v2 added metric piggybacks:
// worker heartbeats carry a registry snapshot and results frames carry
// the final one, feeding the coordinator's farm-wide /metrics. v3
// extends replay-record inputs with payload content so scenario
// exploit packets cross the cluster boundary losslessly. v4 adds each
// owned shard's next pending event to ready and epoch-done, the horizon
// the coordinator's runner widens epochs against. v5 shows the
// coordinator only the worker's aggregate, as the in-process transport
// reports it: ready and epoch-done carry its one earliest next event. v6
// drops the clock negotiation (prepared, align) and the second
// assignment path (restore): every kernel starts at 0, and one assign →
// ready exchange takes a fresh slot or a recovery. v7 makes epoch and
// epoch-done frames binary, every input naming its destination shard:
// a worker exchanges its own shards' packets in process, the coordinator
// forwards the rest, and a recovery replays the slot's logged epoch
// frames instead of per-shard checkpoints. v8 drops the gateway's
// OutRateLimited, OutProxied and ProxyReturns counters from the
// gateway.Stats a shard result ships. v9 ships a shard result's counters
// as one core.Totals: the host and cumulative guest counters, the first
// detection and the deception actions join it, and Bindings leaves it.
// v10 adds totals: at a barrier the progress observer is due at, the
// coordinator asks each worker for its shards' core.Totals. v11 puts
// each shard's histograms in its Totals and takes the metric piggybacks
// out: the coordinator publishes its registry from the totals replies,
// and a worker runs no registry.
const ProtoVersion = 11

// maxFrame bounds a single frame payload. Results frames carry whole
// buffered event logs, so the bound is generous; everything else is
// tiny.
const maxFrame = 256 << 20

// Message types. The payload of every control message is JSON; epoch
// and epoch-done frames are binary (the codec below). Numbers are never
// reused, so a frame from another version is never misread before the
// hello is refused.
type msgType byte

const (
	msgHello     msgType = 1  // worker -> coordinator: version, config hash, name
	msgAssign    msgType = 2  // coordinator -> worker: id, shards, frames a recovery replays
	msgReady     msgType = 6  // worker -> coordinator: domains built (and replayed)
	msgEpoch     msgType = 7  // coordinator -> worker: epoch bounds + inputs
	msgEpochDone msgType = 8  // worker -> coordinator: co-located count + outbox
	msgHeartbeat msgType = 9  // both directions, empty payload
	msgResults   msgType = 10 // coordinator -> worker (request, empty) and reply
	msgShutdown  msgType = 11 // coordinator -> worker: run over, exit cleanly
	msgError     msgType = 12 // either direction: fatal error text, then close
	msgTotals    msgType = 13 // coordinator -> worker (request, empty) and reply, at a barrier
)

func (t msgType) String() string {
	switch t {
	case msgHello:
		return "hello"
	case msgAssign:
		return "assign"
	case msgReady:
		return "ready"
	case msgEpoch:
		return "epoch"
	case msgEpochDone:
		return "epoch-done"
	case msgHeartbeat:
		return "heartbeat"
	case msgResults:
		return "results"
	case msgShutdown:
		return "shutdown"
	case msgError:
		return "error"
	case msgTotals:
		return "totals"
	}
	return fmt.Sprintf("msg(%d)", byte(t))
}

// frame is one decoded wire frame.
type frame struct {
	typ     msgType
	payload []byte
}

// writeFrame emits one frame: u32 big-endian payload length, u8 type,
// payload.
func writeFrame(w io.Writer, typ msgType, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("cluster: frame %v payload %d exceeds limit", typ, len(payload))
	}
	hdr := make([]byte, 5)
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)))
	hdr[4] = byte(typ)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, rejecting oversized payloads. The payload
// grows as its bytes arrive, from at most 64 KiB up front: a header
// alone, which anyone may send before the hello is checked, claims
// nothing. The MinRead slack lets a payload that fits end without a
// regrow.
func readFrame(r io.Reader) (frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return frame{}, fmt.Errorf("cluster: frame payload %d exceeds limit", n)
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(int(n), 64<<10)+bytes.MinRead))
	if _, err := io.CopyN(buf, r, int64(n)); err != nil {
		return frame{}, err
	}
	return frame{typ: msgType(hdr[4]), payload: buf.Bytes()}, nil
}

// unmarshal decodes a JSON control payload.
func unmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }

// Control message payloads.

type helloMsg struct {
	Version    int
	ConfigHash uint64
	Name       string
}

type assignMsg struct {
	Worker int
	Shards []int
	Events bool // collect per-domain event logs for the coordinator
	Trace  bool // collect per-domain span traces
	// Recovery marks a slot taken over from a dead worker: its kill hook
	// stays unarmed. Replay epoch frames, the slot's log, follow the
	// assign; the worker runs them and answers ready after the last.
	Recovery bool
	Replay   int
}

type readyMsg struct {
	Next sim.Time // the earliest pending event on any owned shard once built (and replayed)
}

// epochMsg is a decoded epoch frame: u64 seq, start and end, then the
// inputs of the worker's shards (appendCross, appendInject,
// appendRecord) to the end of the payload.
type epochMsg struct {
	Seq        uint64
	Start, End sim.Time
	Inputs     []input
}

// appendEpoch appends an epoch frame: the header, then inputs as they
// were encoded.
func appendEpoch(b []byte, seq uint64, start, end sim.Time, inputs []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint64(b, uint64(start))
	b = binary.BigEndian.AppendUint64(b, uint64(end))
	return append(b, inputs...)
}

// decodeEpoch parses an epoch frame of a run over shards.
func decodeEpoch(payload []byte, shards int) (epochMsg, error) {
	r := &byteReader{b: payload}
	m := epochMsg{Seq: r.u64(), Start: sim.Time(r.u64()), End: sim.Time(r.u64())}
	for !r.done() {
		in, err := decodeInput(r, shards)
		if err != nil {
			return m, err
		}
		m.Inputs = append(m.Inputs, in)
	}
	return m, r.err
}

// epochDoneMsg is a decoded epoch-done frame: u64 seq and next event
// (the earliest pending event on any owned shard after the epoch, its
// unexchanged co-located packets included), u32 count of co-located
// sends, then the cross inputs for other workers' shards, grouped by
// source shard in send order.
type epochDoneMsg struct {
	Seq       uint64
	Next      sim.Time
	Colocated int
	Outbox    []outboxEntry
}

// outboxEntry is one cross input of an epoch-done frame: raw, its
// encoded bytes, go unchanged into the frame of the worker owning dst.
type outboxEntry struct {
	dst int
	at  sim.Time
	raw []byte
}

// appendEpochDone appends an epoch-done frame's header; the outbox
// entries follow it as they were encoded.
func appendEpochDone(b []byte, seq uint64, next sim.Time, colocated int) []byte {
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint64(b, uint64(next))
	return binary.BigEndian.AppendUint32(b, uint32(colocated))
}

// decodeEpochDone parses the epoch-done payload of the worker owning
// owned, for the epoch ending at end. An outbox entry that is not a
// cross input, comes from a shard the worker does not own, goes to one
// it does, is due before end or does not decode exactly is an error, as
// is a next event before end.
func decodeEpochDone(payload []byte, shards int, owned []int, end sim.Time) (epochDoneMsg, error) {
	r := &byteReader{b: payload}
	m := epochDoneMsg{Seq: r.u64(), Next: sim.Time(r.u64()), Colocated: int(r.u32())}
	if r.err != nil {
		return m, r.err
	}
	for !r.done() {
		from := r.off
		in, err := decodeInput(r, shards)
		if err != nil {
			return m, err
		}
		if in.Kind != inputCross || !slices.Contains(owned, in.Src) || slices.Contains(owned, in.Dst) || in.At < end {
			return m, fmt.Errorf("outbox entry kind=%d src=%d dst=%d at=%v violates barrier (epoch end %v)",
				in.Kind, in.Src, in.Dst, in.At, end)
		}
		m.Outbox = append(m.Outbox, outboxEntry{dst: in.Dst, at: in.At, raw: payload[from:r.off]})
	}
	if m.Next < end {
		return m, fmt.Errorf("next event at %v is before the barrier at %v", m.Next, end)
	}
	return m, nil
}

// heartbeatMsg is the worker->coordinator heartbeat payload: the last
// epoch the worker completed. Coordinator->worker heartbeats stay empty;
// the worker ignores the payload either way, so the frame doubles as the
// liveness signal it always was.
type heartbeatMsg struct {
	Seq uint64 `json:",omitempty"`
}

type shardResult struct {
	Shard    int
	Totals   core.Totals
	FaultLog []string
	Events   []byte
	Trace    []byte
}

// resultsMsg answers results, and totals with only each shard's Shard
// and Totals set.
type resultsMsg struct {
	Shards []shardResult
}

// decodeResults parses a results or totals reply; a histogram that does
// not decode (metrics.Histogram.UnmarshalJSON), or is null, fails it.
func decodeResults(payload []byte) (resultsMsg, error) {
	var m resultsMsg
	err := unmarshal(payload, &m)
	for _, sr := range m.Shards {
		hists := slices.Concat(sr.Totals.Clone, sr.Totals.Detect, sr.Totals.Deception)
		for _, stages := range sr.Totals.Stages {
			hists = slices.AppendSeq(hists, maps.Values(stages))
		}
		if err == nil && slices.Contains(hists, nil) {
			err = fmt.Errorf("shard %d: a null histogram", sr.Shard)
		}
	}
	return m, err
}

type errorMsg struct {
	Text string
}

// configHash digests the scenario identity both sides must agree on.
// The tag is the caller's canonical rendering of the scenario (the
// facade options or the daemon flag set); shards, seed, and lookahead
// are hashed explicitly because the barrier math depends on them.
func configHash(tag string, shards int, seed uint64, lookahead time.Duration) uint64 {
	h := fnv.New64a()
	io.WriteString(h, tag)
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:], uint64(shards))
	binary.BigEndian.PutUint64(buf[8:], seed)
	binary.BigEndian.PutUint64(buf[16:], uint64(lookahead))
	h.Write(buf[:])
	return h.Sum64()
}

// Binary input codec. An input is one packet scheduled into a shard at
// an epoch barrier, named by its kind, u32 destination shard and u64
// time: a cross-shard packet from a shard another worker hosts (after a
// u32 source shard), a packet injected at the barrier, or a telescope
// replay record.

const (
	inputCross  = 1 // src, dst, at, packet
	inputRecord = 2 // dst, at, record
	inputInject = 3 // dst, at, packet
)

// maxPayload bounds a packet input's payload (the wire layer never
// carries more than 64 KiB either).
const maxPayload = 1 << 20

// input is one decoded barrier input.
type input struct {
	Kind     byte
	Src, Dst int // Src: inputCross only
	At       sim.Time
	Pkt      *netsim.Packet   // inputCross, inputInject
	Rec      telescope.Record // inputRecord
}

// appendCross appends a cross input: pkt, sent by shard src for shard
// dst, due at at. The encoding is self-delimiting, so entries forwarded
// as raw bytes concatenate safely.
func appendCross(b []byte, src, dst int, at sim.Time, pkt *netsim.Packet) []byte {
	b = append(b, inputCross)
	b = binary.BigEndian.AppendUint32(b, uint32(src))
	return appendPacket(appendTarget(b, dst, at), pkt)
}

// appendTarget appends an input's destination shard and time.
func appendTarget(b []byte, dst int, at sim.Time) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(dst))
	return binary.BigEndian.AppendUint64(b, uint64(at))
}

// appendRecord appends a replay-record input for shard dst. The
// stored-payload length is separate from PayLen: most telescope records
// carry only a size, but scenario exploit records carry content that
// must survive the trip to the owning worker.
func appendRecord(b []byte, dst int, at sim.Time, rec telescope.Record) []byte {
	b = appendTarget(append(b, inputRecord), dst, at)
	b = binary.BigEndian.AppendUint32(b, uint32(rec.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(rec.Dst))
	b = append(b, byte(rec.Proto), rec.Flags)
	b = binary.BigEndian.AppendUint16(b, rec.SrcPort)
	b = binary.BigEndian.AppendUint16(b, rec.DstPort)
	b = binary.BigEndian.AppendUint16(b, rec.PayLen)
	b = binary.BigEndian.AppendUint16(b, uint16(len(rec.Payload)))
	return append(b, rec.Payload...)
}

// appendPacket appends a lossless packet encoding (every netsim.Packet
// field; the on-the-wire GRE marshal is deliberately not reused — it
// recomputes checksums and truncates models the simulator keeps exact).
func appendPacket(b []byte, p *netsim.Packet) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(p.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(p.Dst))
	b = append(b, byte(p.Proto), p.TTL)
	b = binary.BigEndian.AppendUint16(b, p.ID)
	b = binary.BigEndian.AppendUint16(b, p.SrcPort)
	b = binary.BigEndian.AppendUint16(b, p.DstPort)
	b = binary.BigEndian.AppendUint32(b, p.Seq)
	b = binary.BigEndian.AppendUint32(b, p.Ack)
	b = append(b, p.Flags)
	b = binary.BigEndian.AppendUint16(b, p.Window)
	b = append(b, p.ICMPType, p.ICMPCode)
	b = binary.BigEndian.AppendUint32(b, uint32(len(p.Payload)))
	return append(b, p.Payload...)
}

// byteReader reads big-endian fields with bounds checking. The first
// short read sticks in err, and every read after it returns zero, so a
// decoder checks err once, after the fields it reads.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.err = fmt.Errorf("cluster: truncated input at offset %d (want %d of %d)", r.off, n, len(r.b))
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *byteReader) u8() byte {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *byteReader) u16() uint16 {
	if s := r.take(2); s != nil {
		return binary.BigEndian.Uint16(s)
	}
	return 0
}

func (r *byteReader) u32() uint32 {
	if s := r.take(4); s != nil {
		return binary.BigEndian.Uint32(s)
	}
	return 0
}

func (r *byteReader) u64() uint64 {
	if s := r.take(8); s != nil {
		return binary.BigEndian.Uint64(s)
	}
	return 0
}

// done reports whether nothing is left to read: the end, or an error.
func (r *byteReader) done() bool { return r.err != nil || r.off >= len(r.b) }

// decodePacket reads one packet encoded by appendPacket. The fields are
// read in the order the literal lists them.
func decodePacket(r *byteReader) (*netsim.Packet, error) {
	p := &netsim.Packet{
		Src: netsim.Addr(r.u32()), Dst: netsim.Addr(r.u32()),
		Proto: netsim.Proto(r.u8()), TTL: r.u8(), ID: r.u16(),
		SrcPort: r.u16(), DstPort: r.u16(), Seq: r.u32(), Ack: r.u32(),
		Flags: r.u8(), Window: r.u16(), ICMPType: r.u8(), ICMPCode: r.u8(),
	}
	n := r.u32()
	if n > maxPayload {
		return nil, fmt.Errorf("cluster: packet payload %d exceeds limit", n)
	}
	if n > 0 {
		p.Payload = bytes.Clone(r.take(int(n)))
	}
	return p, r.err
}

// decodeInput reads one input encoded by appendCross, appendInject or
// appendRecord in a run over shards.
func decodeInput(r *byteReader, shards int) (input, error) {
	in := input{Kind: r.u8()}
	var src uint32
	if in.Kind == inputCross {
		src = r.u32()
	}
	dst, at := r.u32(), sim.Time(r.u64())
	switch {
	case r.err != nil:
		return in, r.err
	case src >= uint32(shards) || dst >= uint32(shards):
		return in, fmt.Errorf("cluster: input from shard %d for shard %d of %d", src, dst, shards)
	case at < 0:
		return in, fmt.Errorf("cluster: input with negative time %d", at)
	}
	in.Src, in.Dst, in.At = int(src), int(dst), at
	switch in.Kind {
	case inputCross, inputInject:
		var err error
		in.Pkt, err = decodePacket(r)
		return in, err
	case inputRecord:
		in.Rec = telescope.Record{
			At: at, Src: netsim.Addr(r.u32()), Dst: netsim.Addr(r.u32()),
			Proto: netsim.Proto(r.u8()), Flags: r.u8(),
			SrcPort: r.u16(), DstPort: r.u16(), PayLen: r.u16(),
		}
		if stored := r.u16(); stored > 0 {
			in.Rec.Payload = bytes.Clone(r.take(int(stored)))
		}
		return in, r.err
	}
	return in, fmt.Errorf("cluster: unknown input kind %d", in.Kind)
}

// conn wraps a worker connection with serialized writes and heartbeat
// bookkeeping. Reads happen on a single reader goroutine per conn (the
// coordinator side) or the worker's main loop.
type conn struct {
	c       net.Conn
	writeMu chMutex
}

// chMutex is a channel-based mutex so writes can be serialized from
// both the heartbeat goroutine and the main loop without a sync.Mutex
// held across network writes blocking shutdown forever (the conn close
// unblocks the writer, which releases the slot).
type chMutex chan struct{}

func newConn(c net.Conn) *conn {
	w := &conn{c: c, writeMu: make(chMutex, 1)}
	w.writeMu <- struct{}{}
	return w
}

// send JSON-encodes a control message and writes it as one frame.
func (w *conn) send(typ msgType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return w.write(typ, payload)
}

// write writes one frame, serialized against the connection's other
// writers.
func (w *conn) write(typ msgType, payload []byte) error {
	<-w.writeMu
	defer func() { w.writeMu <- struct{}{} }()
	return writeFrame(w.c, typ, payload)
}

func (w *conn) close() { w.c.Close() }
