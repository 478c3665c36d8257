package metrics

// Epoch profiler: per-epoch phase timings for the conservative parallel
// engine and the cluster coordinator, whose epochs come from the same
// runner loop (sim.ParallelRunner). Each epoch yields one EpochSample —
// how long each shard spent advancing, how long it then idled at the
// barrier waiting for the slowest shard, and what the single-threaded
// outbox exchange cost — feeding registry histograms for live /metrics
// scraping plus an optional JSONL timeline for offline analysis
// (`inspect epochs`).
//
// All figures are wall-clock and observability-only: nothing recorded
// here ever feeds back into simulation state, so a profiled run stays
// byte-identical to an unprofiled one.

import (
	"bufio"
	"encoding/json"
	"io"
)

// EpochSample is one epoch's phase timings. StartNS/EndNS are the
// epoch's *simulated* time bounds; ExchangeMsgs (cross-shard messages
// delivered entering the epoch) and IngressFrames count; every other
// field is wall-clock. BarrierWaitNS[i] is how long shard i sat idle at
// the barrier after finishing its own advance (max advance minus own
// advance). For the cluster coordinator, "shards" are workers and
// ExchangeBytes counts encoded epoch-input frame bytes; the bounds and
// counts equal the in-process engine's for the same seed.
type EpochSample struct {
	Seq           uint64  `json:"seq"`
	StartNS       int64   `json:"start_ns"`
	EndNS         int64   `json:"end_ns"`
	WallNS        int64   `json:"wall_ns"`
	ExchangeNS    int64   `json:"exchange_ns"`
	ExchangeMsgs  int     `json:"exchange_msgs,omitempty"`
	ExchangeBytes int64   `json:"exchange_bytes,omitempty"`
	AdvanceNS     []int64 `json:"advance_ns,omitempty"`
	BarrierWaitNS []int64 `json:"barrier_wait_ns,omitempty"`
	SlowestShard  int     `json:"slowest_shard"`
	// IngressFrames counts externally sourced records (replay or live
	// wire) scheduled into this epoch at its opening barrier — the
	// epoch-aligned ingress the engine quantizes wire arrivals onto.
	IngressFrames int `json:"ingress_frames,omitempty"`
}

// EpochProfiler accumulates epoch samples into histograms (milliseconds)
// and optionally streams each sample as one JSONL line. Record is meant
// to be called from the single driver goroutine that owns the epoch
// loop; the histograms may be scraped concurrently. Nil-safe.
type EpochProfiler struct {
	Advance     *Hist // per-shard advance wall ms
	BarrierWait *Hist // per-shard barrier idle ms
	Exchange    *Hist // outbox exchange wall ms
	Flush       *Hist // sink flush wall ms (recorded at Close)
	Ingress     *Hist // ingress records scheduled per epoch
	Epochs      *Counter
	Msgs        *Counter
	Bytes       *Counter
	Frames      *Counter // total ingress records

	w    *bufio.Writer
	err  error
	seen uint64
}

// NewEpochProfiler builds a profiler whose histograms live in reg under
// the epoch_* names (a private registry is used when reg is nil, so the
// profiler works standalone). timeline, when non-nil, receives one JSON
// line per epoch; call Flush before reading it.
func NewEpochProfiler(reg *Registry, timeline io.Writer) *EpochProfiler {
	if reg == nil {
		reg = NewRegistry()
	}
	p := &EpochProfiler{
		Advance:     reg.Hist("epoch_advance_ms"),
		BarrierWait: reg.Hist("epoch_barrier_wait_ms"),
		Exchange:    reg.Hist("epoch_exchange_ms"),
		Flush:       reg.Hist("epoch_sink_flush_ms"),
		Ingress:     reg.Hist("epoch_ingress_frames"),
		Epochs:      reg.Counter("epochs_total"),
		Msgs:        reg.Counter("epoch_exchange_msgs_total"),
		Bytes:       reg.Counter("epoch_exchange_bytes_total"),
		Frames:      reg.Counter("epoch_ingress_frames_total"),
	}
	if timeline != nil {
		p.w = bufio.NewWriter(timeline)
	}
	return p
}

// Record folds one epoch into the histograms and appends it to the
// timeline. If s.Seq is zero a sequence number is assigned. Nil-safe.
func (p *EpochProfiler) Record(s EpochSample) {
	if p == nil {
		return
	}
	p.seen++
	if s.Seq == 0 {
		s.Seq = p.seen
	}
	p.Epochs.Inc()
	p.Msgs.Add(uint64(s.ExchangeMsgs))
	p.Bytes.Add(uint64(s.ExchangeBytes))
	p.Frames.Add(uint64(s.IngressFrames))
	p.Exchange.Observe(float64(s.ExchangeNS) / 1e6)
	p.Ingress.Observe(float64(s.IngressFrames))
	for _, ns := range s.AdvanceNS {
		p.Advance.Observe(float64(ns) / 1e6)
	}
	for _, ns := range s.BarrierWaitNS {
		p.BarrierWait.Observe(float64(ns) / 1e6)
	}
	if p.w != nil && p.err == nil {
		b, err := json.Marshal(s)
		if err == nil {
			b = append(b, '\n')
			_, err = p.w.Write(b)
		}
		p.err = err
	}
}

// RecordFlush records the sink-flush phase (event-log and trace buffers
// written in shard order at engine Close). Nil-safe.
func (p *EpochProfiler) RecordFlush(ns int64) {
	if p == nil {
		return
	}
	p.Flush.Observe(float64(ns) / 1e6)
}

// FlushTimeline flushes the buffered JSONL timeline and returns the
// first write error encountered, if any. Nil-safe.
func (p *EpochProfiler) FlushTimeline() error {
	if p == nil {
		return nil
	}
	if p.w != nil {
		if err := p.w.Flush(); err != nil && p.err == nil {
			p.err = err
		}
	}
	return p.err
}

// ReadEpochs parses a JSONL epoch timeline.
func ReadEpochs(r io.Reader) ([]EpochSample, error) {
	var out []EpochSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var s EpochSample
		if err := json.Unmarshal(line, &s); err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// EpochAgg is an offline aggregation of an epoch timeline, built on the
// single-threaded Histogram type.
type EpochAgg struct {
	Advance     Histogram
	BarrierWait Histogram
	Exchange    Histogram
	Wall        Histogram
	Ingress     Histogram
	TotalMsgs   int64
	TotalBytes  int64
	TotalFrames int64
}

// AggregateEpochs folds samples into per-phase histograms (ms).
func AggregateEpochs(samples []EpochSample) *EpochAgg {
	a := &EpochAgg{}
	for _, s := range samples {
		a.Wall.Observe(float64(s.WallNS) / 1e6)
		a.Exchange.Observe(float64(s.ExchangeNS) / 1e6)
		for _, ns := range s.AdvanceNS {
			a.Advance.Observe(float64(ns) / 1e6)
		}
		for _, ns := range s.BarrierWaitNS {
			a.BarrierWait.Observe(float64(ns) / 1e6)
		}
		a.Ingress.Observe(float64(s.IngressFrames))
		a.TotalMsgs += int64(s.ExchangeMsgs)
		a.TotalBytes += s.ExchangeBytes
		a.TotalFrames += int64(s.IngressFrames)
	}
	return a
}
