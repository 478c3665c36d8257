package cluster

// Epoch-boundary checkpoints by deterministic replay. The simulator's
// kernels hold closures, so shard state cannot be serialized directly;
// what CAN be serialized is everything the coordinator ever injected
// into a shard — the per-epoch barrier inputs (cross-shard deliveries
// and telescope replay records, in delivery order). Rebuilding the
// domain from the same seed and replaying that log epoch-by-epoch
// reproduces the shard's state at the last completed barrier exactly,
// byte for byte, which is what lets a standby worker adopt a crashed
// worker's shards mid-run. Empty epochs are elided: running a kernel
// to time T in one step or in many is equivalent, as long as each
// non-empty epoch's inputs are scheduled while the kernel clock sits
// at that epoch's start (preserving event-heap insertion order against
// the domain's internal events).

import (
	"encoding/binary"
	"fmt"
	"io"

	"potemkin/internal/sim"
)

// Checkpoint magic/version ("PCLU", cluster replay checkpoint). v2
// tracks the protocol's v3 record codec: epoch input lists embed
// stored payload bytes, so a v1 reader would misparse them.
const (
	checkpointMagic   = 0x50434c55
	checkpointVersion = 2
)

// Bounds applied before allocating while reading untrusted checkpoint
// bytes.
const (
	maxCheckpointEpochs = 1 << 22
	maxEpochInputs      = 1 << 22
)

// EpochInputs records one non-empty epoch: its bounds and the inputs
// the coordinator injected at its opening barrier, in delivery order.
type EpochInputs struct {
	Start, End sim.Time
	Inputs     []byte // binary input-list codec (proto.go)
}

// Checkpoint is a shard's deterministic-replay checkpoint through the
// last completed epoch barrier.
type Checkpoint struct {
	Shard      int
	Shards     int
	Seed       uint64
	ConfigHash uint64
	Base       sim.Time // clock at which traffic started: 0, where every kernel starts
	Through    sim.Time // last completed epoch boundary
	Epochs     []EpochInputs
}

// WriteTo writes the serialized checkpoint to w.
func (ck *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(ck.Encode())
	return int64(n), err
}

// Encode returns the serialized checkpoint bytes.
func (ck *Checkpoint) Encode() []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, checkpointMagic)
	b = binary.BigEndian.AppendUint32(b, checkpointVersion)
	b = binary.BigEndian.AppendUint32(b, uint32(ck.Shard))
	b = binary.BigEndian.AppendUint32(b, uint32(ck.Shards))
	b = binary.BigEndian.AppendUint64(b, ck.Seed)
	b = binary.BigEndian.AppendUint64(b, ck.ConfigHash)
	b = binary.BigEndian.AppendUint64(b, uint64(ck.Base))
	b = binary.BigEndian.AppendUint64(b, uint64(ck.Through))
	b = binary.BigEndian.AppendUint32(b, uint32(len(ck.Epochs)))
	for _, ep := range ck.Epochs {
		b = binary.BigEndian.AppendUint64(b, uint64(ep.Start))
		b = binary.BigEndian.AppendUint64(b, uint64(ep.End))
		b = binary.BigEndian.AppendUint32(b, uint32(len(ep.Inputs)))
		b = append(b, ep.Inputs...)
	}
	return b
}

// ReadCheckpoint parses a serialized shard checkpoint, validating
// structure and bounds so truncated or corrupt input yields an error,
// never a panic or an absurd allocation. Every decoded input is run
// through the input codec, so a checkpoint that reads back cleanly is
// replayable.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxFrame+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading checkpoint: %w", err)
	}
	if len(data) > maxFrame {
		return nil, fmt.Errorf("cluster: checkpoint exceeds %d bytes", maxFrame)
	}
	return DecodeCheckpoint(data)
}

// DecodeCheckpoint is ReadCheckpoint over in-memory bytes.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	br := &byteReader{b: data}
	magic, err := br.u32()
	if err != nil {
		return nil, fmt.Errorf("cluster: checkpoint too short: %w", err)
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("cluster: bad checkpoint magic %#x", magic)
	}
	ver, err := br.u32()
	if err != nil {
		return nil, err
	}
	if ver != checkpointVersion {
		return nil, fmt.Errorf("cluster: unsupported checkpoint version %d", ver)
	}
	ck := &Checkpoint{}
	shard, err := br.u32()
	if err != nil {
		return nil, err
	}
	shards, err := br.u32()
	if err != nil {
		return nil, err
	}
	if shards == 0 || shards > 1<<20 || shard >= shards {
		return nil, fmt.Errorf("cluster: checkpoint shard %d of %d out of range", shard, shards)
	}
	ck.Shard, ck.Shards = int(shard), int(shards)
	if ck.Seed, err = br.u64(); err != nil {
		return nil, err
	}
	if ck.ConfigHash, err = br.u64(); err != nil {
		return nil, err
	}
	base, err := br.u64()
	if err != nil {
		return nil, err
	}
	through, err := br.u64()
	if err != nil {
		return nil, err
	}
	ck.Base, ck.Through = sim.Time(base), sim.Time(through)
	if ck.Base < 0 || ck.Through < ck.Base {
		return nil, fmt.Errorf("cluster: checkpoint time range [%d, %d] invalid", ck.Base, ck.Through)
	}
	nEpochs, err := br.u32()
	if err != nil {
		return nil, err
	}
	if nEpochs > maxCheckpointEpochs {
		return nil, fmt.Errorf("cluster: checkpoint epoch count %d exceeds limit", nEpochs)
	}
	prevEnd := ck.Base
	for i := uint32(0); i < nEpochs; i++ {
		start, err := br.u64()
		if err != nil {
			return nil, fmt.Errorf("cluster: truncated epoch %d header: %w", i, err)
		}
		end, err := br.u64()
		if err != nil {
			return nil, err
		}
		ep := EpochInputs{Start: sim.Time(start), End: sim.Time(end)}
		if ep.Start < prevEnd || ep.End <= ep.Start || ep.End > ck.Through {
			return nil, fmt.Errorf("cluster: epoch %d bounds [%v, %v] out of order", i, ep.Start, ep.End)
		}
		prevEnd = ep.End
		n, err := br.u32()
		if err != nil {
			return nil, err
		}
		blob, err := br.take(int(n))
		if err != nil {
			return nil, fmt.Errorf("cluster: truncated epoch %d inputs: %w", i, err)
		}
		// Decode eagerly: corrupt inputs must surface at load time, not
		// as a replay panic later.
		ins, err := decodeInputs(blob)
		if err != nil {
			return nil, fmt.Errorf("cluster: epoch %d: %w", i, err)
		}
		if len(ins) > maxEpochInputs {
			return nil, fmt.Errorf("cluster: epoch %d input count %d exceeds limit", i, len(ins))
		}
		for _, in := range ins {
			// Replay records land inside their epoch; cross-shard
			// deliveries are merely scheduled at its barrier and may be
			// due later (the kernel holds them). Either way nothing may
			// sort before the barrier, or replay would panic.
			if in.At < ep.Start {
				return nil, fmt.Errorf("cluster: epoch %d input at %v before epoch start %v", i, in.At, ep.Start)
			}
		}
		ep.Inputs = append([]byte(nil), blob...)
		ck.Epochs = append(ck.Epochs, ep)
	}
	if !br.done() {
		return nil, fmt.Errorf("cluster: %d trailing bytes after checkpoint", len(data)-br.off)
	}
	return ck, nil
}

// shardLog accumulates one shard's completed-epoch inputs during a run
// — the live form of a Checkpoint. The coordinator keeps one per shard
// and snapshots a dead worker's into the checkpoints its replacement
// restores from.
type shardLog struct {
	epochs  []EpochInputs
	through sim.Time
}

// commit records a completed epoch (empty epochs advance `through`
// without an entry).
func (l *shardLog) commit(start, end sim.Time, inputs []byte) {
	if len(inputs) > 0 {
		l.epochs = append(l.epochs, EpochInputs{Start: start, End: end, Inputs: inputs})
	}
	l.through = end
}

// checkpoint snapshots the log as a serializable Checkpoint.
func (l *shardLog) checkpoint(shard, shards int, seed, hash uint64, base sim.Time) *Checkpoint {
	through := l.through
	if through < base {
		through = base
	}
	return &Checkpoint{
		Shard: shard, Shards: shards, Seed: seed, ConfigHash: hash,
		Base: base, Through: through,
		Epochs: append([]EpochInputs(nil), l.epochs...),
	}
}
