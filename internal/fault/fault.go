// Package fault is the deterministic fault-injection layer for the
// honeyfarm: it schedules server crashes and recoveries, transient
// flash-clone failures, clone-latency spikes, and farm<->gateway link
// outages against a running farm, entirely on the simulation clock.
//
// Determinism is the point. Every random choice (per-clone failure coin
// flips) draws from one named sim.RNG stream derived from the kernel
// seed, and every state change rides the event queue — so a chaotic run
// replays identically under the same seed, which is what makes failures
// debuggable.
//
// Faults come from two sources, freely combined:
//
//   - a Script of fixed-time Actions ("crash server 2 at t=30s for
//     20s"), scheduled when the injector is built,
//   - direct calls (Crash, FailClones, CutLink, ...) from experiment
//     code.
package fault

import (
	"fmt"
	"time"

	"potemkin/internal/farm"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// Kind classifies an injected fault transition.
type Kind string

// Fault kinds. The *End kinds mark a transient window closing.
const (
	KindCrash        Kind = "crash"
	KindRecover      Kind = "recover"
	KindCloneFail    Kind = "clone-fail"
	KindCloneFailEnd Kind = "clone-fail-end"
	KindCloneSlow    Kind = "clone-slow"
	KindCloneSlowEnd Kind = "clone-slow-end"
	KindLinkDown     Kind = "link-down"
	KindLinkUp       Kind = "link-up"
	// KindKillWorker abruptly terminates a cluster worker process
	// (Action.Server is the worker index). In single-process runs the
	// event is recorded but has no effect on the simulation — which is
	// exactly what makes a cluster run with a kill recover to the same
	// bytes as the sequential oracle.
	KindKillWorker Kind = "kill-worker"
)

// Event records one applied fault transition.
type Event struct {
	T      sim.Time
	Kind   Kind
	Server int // server index, or -1 for farm-wide faults
	Detail string
}

// String renders the event for logs and run-to-run comparison.
func (e Event) String() string {
	s := fmt.Sprintf("t=%.3fs %s", e.T.Seconds(), e.Kind)
	if e.Server >= 0 {
		s += fmt.Sprintf(" server=%d", e.Server)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Action is one scripted fault: apply Kind at offset At from the clock
// at New.
type Action struct {
	At     time.Duration
	Kind   Kind // KindCrash, KindRecover, KindCloneFail, KindCloneSlow, KindLinkDown, KindLinkUp
	Server int  // for KindCrash / KindRecover

	// Duration bounds transient faults: the crash outage, the
	// clone-fail / clone-slow window, the link cut. Zero means the
	// fault holds until an explicit recovering Action.
	Duration time.Duration

	Factor float64 // clone-latency multiplier for KindCloneSlow
	Prob   float64 // per-clone failure probability for KindCloneFail
}

// Config parameterizes an Injector.
type Config struct {
	// Script is a list of fixed-time faults, applied relative to the
	// clock at New.
	Script []Action
}

// Injector drives faults into a farm on the simulation clock.
type Injector struct {
	K *sim.Kernel
	F *farm.Farm

	// OnEvent observes every applied fault (nil to ignore).
	OnEvent func(Event)

	// OnKillWorker fires when a KindKillWorker action lands (after the
	// event is recorded). Cluster workers install a hook that aborts
	// the process when the killed index is their own; everywhere else
	// the kill is a recorded no-op. A worker restoring crashed shards
	// from a checkpoint leaves the hook nil, so a replayed kill records
	// the same log event without crash-looping the recovery.
	OnKillWorker func(now sim.Time, worker int)

	rng *sim.RNG
	log []Event
}

// New builds an injector over f and schedules its script, offsets
// relative to k's clock now. Randomness comes from the kernel's "fault"
// stream, so adding the injector never perturbs the draws any other
// component sees.
func New(k *sim.Kernel, f *farm.Farm, cfg Config) *Injector {
	in := &Injector{K: k, F: f, rng: k.Stream("fault")}
	for _, a := range cfg.Script {
		k.After(a.At, func(now sim.Time) { in.apply(now, a) })
	}
	return in
}

// Log returns the applied-fault record in order.
func (in *Injector) Log() []Event { return in.log }

func (in *Injector) apply(now sim.Time, a Action) {
	switch a.Kind {
	case KindCrash:
		in.Crash(now, a.Server, a.Duration)
	case KindRecover:
		in.Recover(now, a.Server)
	case KindCloneFail:
		in.FailClones(now, a.Prob, a.Duration)
	case KindCloneFailEnd:
		in.EndCloneFaults(now)
	case KindCloneSlow:
		in.SlowClones(now, a.Factor, a.Duration)
	case KindCloneSlowEnd:
		in.EndCloneSlow(now)
	case KindLinkDown:
		in.CutLink(now, a.Duration)
	case KindLinkUp:
		in.RestoreLink(now)
	case KindKillWorker:
		in.KillWorker(now, a.Server)
	}
}

// KillWorker records a worker-process kill and notifies the hook. The
// farm is untouched: the fault models losing the process that hosts
// the domain, not the simulated hardware inside it.
func (in *Injector) KillWorker(now sim.Time, worker int) {
	in.record(now, KindKillWorker, worker, "")
	if in.OnKillWorker != nil {
		in.OnKillWorker(now, worker)
	}
}

// Crash kills server i now; a positive outage schedules automatic
// recovery that much later.
func (in *Injector) Crash(now sim.Time, i int, outage time.Duration) {
	if in.F.Hosts()[i].Down() {
		return
	}
	killed := in.F.CrashServer(now, i)
	in.record(now, KindCrash, i, fmt.Sprintf("killed=%d outage=%v", killed, outage))
	if outage > 0 {
		in.K.After(outage, func(then sim.Time) { in.Recover(then, i) })
	}
}

// Recover returns server i to service (no-op if it is up).
func (in *Injector) Recover(now sim.Time, i int) {
	if !in.F.Hosts()[i].Down() {
		return
	}
	in.F.RecoverServer(i)
	in.record(now, KindRecover, i, "")
}

// FailClones makes every flash clone on every server fail with
// probability prob (drawn from the injector's stream) — modeling a
// flaky control plane. A positive dur bounds the window.
func (in *Injector) FailClones(now sim.Time, prob float64, dur time.Duration) {
	for _, h := range in.F.Hosts() {
		h.SetCloneFault(func() error {
			if in.rng.Float64() < prob {
				return vmm.ErrCloneFault
			}
			return nil
		})
	}
	in.record(now, KindCloneFail, -1, fmt.Sprintf("p=%.2f dur=%v", prob, dur))
	if dur > 0 {
		in.K.After(dur, func(then sim.Time) { in.EndCloneFaults(then) })
	}
}

// EndCloneFaults closes a FailClones window.
func (in *Injector) EndCloneFaults(now sim.Time) {
	for _, h := range in.F.Hosts() {
		h.SetCloneFault(nil)
	}
	in.record(now, KindCloneFailEnd, -1, "")
}

// SlowClones multiplies modeled flash-clone latency on every server by
// factor (contended storage, a busy control plane). A positive dur
// bounds the spike.
func (in *Injector) SlowClones(now sim.Time, factor float64, dur time.Duration) {
	for _, h := range in.F.Hosts() {
		h.SetCloneLatencyFactor(factor)
	}
	in.record(now, KindCloneSlow, -1, fmt.Sprintf("x%.1f dur=%v", factor, dur))
	if dur > 0 {
		in.K.After(dur, func(then sim.Time) { in.EndCloneSlow(then) })
	}
}

// EndCloneSlow restores normal clone latency.
func (in *Injector) EndCloneSlow(now sim.Time) {
	for _, h := range in.F.Hosts() {
		h.SetCloneLatencyFactor(1)
	}
	in.record(now, KindCloneSlowEnd, -1, "")
}

// CutLink severs the farm<->gateway data link. A positive dur
// schedules automatic restoration.
func (in *Injector) CutLink(now sim.Time, dur time.Duration) {
	if in.F.LinkDown() {
		return
	}
	in.F.SetLinkDown(true)
	in.record(now, KindLinkDown, -1, fmt.Sprintf("dur=%v", dur))
	if dur > 0 {
		in.K.After(dur, func(then sim.Time) { in.RestoreLink(then) })
	}
}

// RestoreLink reconnects the farm<->gateway data link.
func (in *Injector) RestoreLink(now sim.Time) {
	if !in.F.LinkDown() {
		return
	}
	in.F.SetLinkDown(false)
	in.record(now, KindLinkUp, -1, "")
}

// record appends to the log and notifies the observer.
func (in *Injector) record(now sim.Time, kind Kind, server int, detail string) {
	ev := Event{T: now, Kind: kind, Server: server, Detail: detail}
	in.log = append(in.log, ev)
	if in.OnEvent != nil {
		in.OnEvent(ev)
	}
}
