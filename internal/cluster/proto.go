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
// internal/fault), restores its shards from the last epoch-boundary
// checkpoint onto a standby or restarted worker, and resumes the run —
// or, when no replacement appears, fails cleanly with partial results
// instead of hanging the barrier. See DESIGN.md "Cluster execution".
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"slices"
	"time"

	"potemkin/internal/farm"
	"potemkin/internal/gateway"
	"potemkin/internal/guest"
	"potemkin/internal/metrics"
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
// ready exchange takes a fresh slot or, carrying checkpoints, a
// recovery.
const ProtoVersion = 6

// maxFrame bounds a single frame payload. Results frames carry whole
// buffered event logs, so the bound is generous; everything else is
// tiny.
const maxFrame = 256 << 20

// Message types. The payload of every control message is JSON; epoch
// input lists and packets use the binary codec below (nested in JSON as
// base64 []byte fields). Numbers are never reused, so a frame from
// another version is never misread before the hello is refused.
type msgType byte

const (
	msgHello     msgType = 1  // worker -> coordinator: version, config hash, name
	msgAssign    msgType = 2  // coordinator -> worker: id, shards, checkpoints for a recovery
	msgReady     msgType = 6  // worker -> coordinator: domains built (and restored)
	msgEpoch     msgType = 7  // coordinator -> worker: epoch bounds + inputs
	msgEpochDone msgType = 8  // worker -> coordinator: epoch outbox
	msgHeartbeat msgType = 9  // both directions, empty payload
	msgResults   msgType = 10 // coordinator -> worker (request, empty) and reply
	msgShutdown  msgType = 11 // coordinator -> worker: run over, exit cleanly
	msgError     msgType = 12 // either direction: fatal error text, then close
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

// readFrame reads one frame, rejecting oversized payloads before
// allocating.
func readFrame(r io.Reader) (frame, error) {
	hdr := make([]byte, 5)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return frame{}, fmt.Errorf("cluster: frame payload %d exceeds limit", n)
	}
	f := frame{typ: msgType(hdr[4]), payload: make([]byte, n)}
	if _, err := io.ReadFull(r, f.payload); err != nil {
		return frame{}, err
	}
	return f, nil
}

// unmarshal decodes a JSON control payload.
func unmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }

// writeMsg JSON-encodes v and writes it as one frame.
func writeMsg(w io.Writer, typ msgType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, payload)
}

// Control message payloads.

type helloMsg struct {
	Version    int
	ConfigHash uint64
	Name       string
}

type assignMsg struct {
	Worker  int
	Shards  []int
	Events  bool // collect per-domain event logs for the coordinator
	Trace   bool // collect per-domain span traces
	Metrics bool // run a live telemetry registry, piggyback on heartbeats
	// Checkpoints holds one serialized Checkpoint per entry of Shards for
	// a recovery, and nothing for a fresh slot.
	Checkpoints [][]byte
}

type readyMsg struct {
	Next sim.Time // the earliest pending event on any owned shard once built (and restored)
}

type epochMsg struct {
	Seq    uint64
	Start  sim.Time
	End    sim.Time
	Inputs []shardInputs // only shards with inputs appear
}

type shardInputs struct {
	Shard  int
	Inputs []byte // binary input-list codec
}

type epochDoneMsg struct {
	Seq    uint64
	Outbox []outboxEntry
	Next   sim.Time // the earliest pending event on any owned shard after the epoch
}

// decodeEpochDone parses the epoch-done payload of the worker owning
// owned, for the epoch ending at end. Any outbox entry from a shard it
// does not own, to no shard, due before end or with a packet that does
// not decode exactly is an error, as is a next event before end.
func decodeEpochDone(payload []byte, shards int, owned []int, end sim.Time) (epochDoneMsg, error) {
	var m epochDoneMsg
	if err := unmarshal(payload, &m); err != nil {
		return m, err
	}
	for _, e := range m.Outbox {
		if !slices.Contains(owned, e.Src) || e.Dst < 0 || e.Dst >= shards || e.At < end {
			return m, fmt.Errorf("outbox entry src=%d dst=%d at=%v violates barrier (epoch end %v)", e.Src, e.Dst, e.At, end)
		}
		br := &byteReader{b: e.Pkt}
		if _, err := decodePacket(br); err != nil || !br.done() {
			return m, errors.New("undecodable outbox packet")
		}
	}
	if m.Next < end {
		return m, fmt.Errorf("next event at %v is before the barrier at %v", m.Next, end)
	}
	return m, nil
}

// heartbeatMsg is the worker->coordinator heartbeat payload: the last
// epoch the worker completed plus a live registry snapshot (empty
// without metrics). Coordinator->worker heartbeats stay empty; the
// worker ignores the payload either way, so the frame doubles as the
// liveness signal it always was.
type heartbeatMsg struct {
	Seq     uint64          `json:",omitempty"`
	Metrics []metrics.Point `json:",omitempty"`
}

// outboxEntry is one cross-shard packet emitted during an epoch. Src
// entries from one worker arrive grouped by source shard in send order;
// the coordinator's stable merge across workers reproduces the
// in-process (src, send order) delivery order exactly.
type outboxEntry struct {
	Src int
	Dst int
	At  sim.Time
	Pkt []byte // binary packet codec
}

type shardResult struct {
	Shard       int
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
}

type resultsMsg struct {
	Shards []shardResult
	// Metrics is the worker's final registry snapshot (the worker runs
	// one registry across its domains), so the coordinator's end-of-run
	// aggregation is exact rather than heartbeat-lagged.
	Metrics []metrics.Point
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

// Binary input codec. An input is one packet the coordinator injects
// into a shard at an epoch barrier: either a cross-shard delivery
// (full packet) or a telescope replay record. The same encoding is the
// checkpoint payload, so the fuzz target covers both paths.

const (
	inputCross  = 1
	inputRecord = 2
)

// maxPayload bounds a cross-packet payload (the wire layer never
// carries more than 64 KiB either).
const maxPayload = 1 << 20

// input is one decoded barrier injection.
type input struct {
	Kind byte
	At   sim.Time
	Pkt  *netsim.Packet   // Kind == inputCross
	Rec  telescope.Record // Kind == inputRecord
}

// appendCross appends a cross-delivery input.
func appendCross(b []byte, at sim.Time, pkt *netsim.Packet) []byte {
	return appendPacket(appendCrossRaw(b, at, nil), pkt)
}

// appendCrossRaw appends a cross input whose packet is already encoded
// (validated at epoch-done receipt; appendPacket framing is
// self-delimiting so straight concatenation is safe).
func appendCrossRaw(b []byte, at sim.Time, pkt []byte) []byte {
	b = append(b, inputCross)
	b = binary.BigEndian.AppendUint64(b, uint64(at))
	return append(b, pkt...)
}

// appendRecord appends a replay-record input. The stored-payload
// length is separate from PayLen: most telescope records carry only a
// size, but scenario exploit records carry content that must survive
// the trip to the owning worker.
func appendRecord(b []byte, at sim.Time, rec telescope.Record) []byte {
	b = append(b, inputRecord)
	b = binary.BigEndian.AppendUint64(b, uint64(at))
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

// byteReader tracks a decode offset with bounds checking.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) take(n int) ([]byte, error) {
	if n < 0 || len(r.b)-r.off < n {
		return nil, fmt.Errorf("cluster: truncated input at offset %d (want %d of %d)", r.off, n, len(r.b))
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s, nil
}

func (r *byteReader) u8() (byte, error) {
	s, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return s[0], nil
}

func (r *byteReader) u16() (uint16, error) {
	s, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(s), nil
}

func (r *byteReader) u32() (uint32, error) {
	s, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(s), nil
}

func (r *byteReader) u64() (uint64, error) {
	s, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(s), nil
}

func (r *byteReader) done() bool { return r.off >= len(r.b) }

// decodePacket reads one packet encoded by appendPacket.
func decodePacket(r *byteReader) (*netsim.Packet, error) {
	p := &netsim.Packet{}
	src, err := r.u32()
	if err != nil {
		return nil, err
	}
	dst, err := r.u32()
	if err != nil {
		return nil, err
	}
	p.Src, p.Dst = netsim.Addr(src), netsim.Addr(dst)
	proto, err := r.u8()
	if err != nil {
		return nil, err
	}
	p.Proto = netsim.Proto(proto)
	if p.TTL, err = r.u8(); err != nil {
		return nil, err
	}
	if p.ID, err = r.u16(); err != nil {
		return nil, err
	}
	if p.SrcPort, err = r.u16(); err != nil {
		return nil, err
	}
	if p.DstPort, err = r.u16(); err != nil {
		return nil, err
	}
	if p.Seq, err = r.u32(); err != nil {
		return nil, err
	}
	if p.Ack, err = r.u32(); err != nil {
		return nil, err
	}
	if p.Flags, err = r.u8(); err != nil {
		return nil, err
	}
	if p.Window, err = r.u16(); err != nil {
		return nil, err
	}
	if p.ICMPType, err = r.u8(); err != nil {
		return nil, err
	}
	if p.ICMPCode, err = r.u8(); err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > maxPayload {
		return nil, fmt.Errorf("cluster: packet payload %d exceeds limit", n)
	}
	if n > 0 {
		s, err := r.take(int(n))
		if err != nil {
			return nil, err
		}
		p.Payload = append([]byte(nil), s...)
	}
	return p, nil
}

// decodeInput reads one input encoded by appendCross / appendRecord.
func decodeInput(r *byteReader) (input, error) {
	var in input
	kind, err := r.u8()
	if err != nil {
		return in, err
	}
	at, err := r.u64()
	if err != nil {
		return in, err
	}
	in.Kind, in.At = kind, sim.Time(at)
	if in.At < 0 {
		return in, fmt.Errorf("cluster: input with negative time %d", in.At)
	}
	switch kind {
	case inputCross:
		if in.Pkt, err = decodePacket(r); err != nil {
			return in, err
		}
	case inputRecord:
		src, err := r.u32()
		if err != nil {
			return in, err
		}
		dst, err := r.u32()
		if err != nil {
			return in, err
		}
		proto, err := r.u8()
		if err != nil {
			return in, err
		}
		flags, err := r.u8()
		if err != nil {
			return in, err
		}
		sport, err := r.u16()
		if err != nil {
			return in, err
		}
		dport, err := r.u16()
		if err != nil {
			return in, err
		}
		paylen, err := r.u16()
		if err != nil {
			return in, err
		}
		stored, err := r.u16()
		if err != nil {
			return in, err
		}
		var payload []byte
		if stored > 0 {
			s, err := r.take(int(stored))
			if err != nil {
				return in, err
			}
			payload = append([]byte(nil), s...)
		}
		in.Rec = telescope.Record{
			At: in.At, Src: netsim.Addr(src), Dst: netsim.Addr(dst),
			Proto: netsim.Proto(proto), Flags: flags,
			SrcPort: sport, DstPort: dport, PayLen: paylen, Payload: payload,
		}
	default:
		return in, fmt.Errorf("cluster: unknown input kind %d", kind)
	}
	return in, nil
}

// decodeInputs decodes a whole input list.
func decodeInputs(b []byte) ([]input, error) {
	r := &byteReader{b: b}
	var ins []input
	for !r.done() {
		in, err := decodeInput(r)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
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

func (w *conn) send(typ msgType, v any) error {
	<-w.writeMu
	defer func() { w.writeMu <- struct{}{} }()
	return writeMsg(w.c, typ, v)
}

func (w *conn) close() { w.c.Close() }
