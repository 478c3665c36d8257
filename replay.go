package potemkin

import (
	"time"

	"potemkin/internal/core"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

// TraceRecord is one telescope packet arrival (re-exported for trace
// replay through the facade). At is relative to the replay start.
type TraceRecord = telescope.Record

// SliceSource wraps an in-memory trace as a replay source for Replay.
func SliceSource(recs []TraceRecord) telescope.Source {
	return &telescope.SliceSource{Recs: recs}
}

// replayConfig collects the option knobs for Replay.
type replayConfig struct {
	halt     func() bool
	epilogue time.Duration
	every    time.Duration
	progress func(Stats)
}

// ReplayOption customizes a Replay call.
type ReplayOption func(*replayConfig)

// WithHalt installs an early-exit hook, consulted before each record
// (potemkind's signal handler uses it so ^C ends the replay cleanly
// instead of truncating output files mid-record).
func WithHalt(halt func() bool) ReplayOption {
	return func(rc *replayConfig) { rc.halt = halt }
}

// WithEpilogue sets how long the simulation keeps running after the
// last record, so in-flight spawns and reflections settle. Default
// 1 ms.
func WithEpilogue(d time.Duration) ReplayOption {
	return func(rc *replayConfig) { rc.epilogue = d }
}

// WithProgress installs a read-only progress observer: fn gets the
// farm's Stats at the first epoch barrier at or past each multiple of
// every of simulated time after the clock the call starts at, on the
// goroutine driving the run while every shard is stopped. The
// barriers are the same with or without Options.Parallel, and in a
// cluster run, so the calls are too. fn may read the Honeyfarm (a
// Snapshot, say) but must not drive it. every <= 0 or a nil fn installs
// nothing. Replay, RunScenario and WireServer.Serve honour it.
func WithProgress(every time.Duration, fn func(Stats)) ReplayOption {
	return func(rc *replayConfig) { rc.every, rc.progress = every, fn }
}

// Replay streams a record source (a trace file reader, a pcap source,
// an in-memory slice via SliceSource) into the honeyfarm in bounded
// memory: records are scheduled one epoch ahead of the clock, so
// multi-GB traces stream without being slurped. Record times are offset
// from the current clock; records that sort before the clock
// (out-of-order traces) are injected immediately rather than in the
// past. After the last record the simulation runs for the epilogue
// (1 ms unless WithEpilogue says otherwise). Returns the packets
// injected and the first source error, if any.
func (hf *Honeyfarm) Replay(src telescope.Source, opts ...ReplayOption) (int, error) {
	rc := replayConfig{epilogue: time.Millisecond}
	for _, opt := range opts {
		opt(&rc)
	}
	if rc.every > 0 && rc.progress != nil {
		hf.eng.SetProgress(rc.every, func(now sim.Time, t core.Totals) {
			rc.progress(StatsOf(time.Duration(now), t))
		})
		defer hf.eng.SetProgress(0, nil)
	}
	return hf.eng.Replay(src, rc.halt, rc.epilogue)
}
