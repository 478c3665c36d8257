package vmm

import (
	"errors"
	"strconv"
	"time"

	"potemkin/internal/trace"
)

// Host failure model. A host can be crashed (all resident VMs die, new
// clones are rejected) and later recovered, and the fault layer can
// inject transient clone failures and clone-latency spikes. All hooks
// are deterministic: the injector draws from its own named RNG stream,
// so a faulty run replays identically under the same seed.

// ErrHostDown reports a clone attempt against a crashed host.
var ErrHostDown = errors.New("vmm: host is down")

// ErrCloneFault reports an injected transient flash-clone failure.
var ErrCloneFault = errors.New("vmm: injected clone fault")

// Crash takes the host down: every resident VM dies immediately
// (mid-clone VMs included — their ready callbacks never fire) and
// further clone and boot requests fail with ErrHostDown until Recover.
// Returns the number of VMs killed. Crashing a down host is a no-op.
func (h *VMHost) Crash() int {
	if h.down {
		return 0
	}
	h.down = true
	h.stats.Crashes++
	killed := len(h.vms)
	h.stats.CrashKilledVMs += uint64(killed)
	h.tr.Instant(h.K.Now(), "host-crash",
		trace.Attr{K: "server", V: h.Cfg.Name},
		trace.Attr{K: "killed", V: strconv.Itoa(killed)})
	h.DestroyAll()
	return killed
}

// Recover brings a crashed host back into service, empty. Recovering an
// up host is a no-op.
func (h *VMHost) Recover() {
	if !h.down {
		return
	}
	h.down = false
	h.stats.Recoveries++
	h.tr.Instant(h.K.Now(), "host-recover", trace.Attr{K: "server", V: h.Cfg.Name})
}

// Down reports whether the host is crashed.
func (h *VMHost) Down() bool { return h.down }

// SetCloneFault installs a hook consulted at the start of every flash
// clone; a non-nil return fails the clone with that error (counted as
// a CloneFaults reject). Pass nil to clear. The fault injector uses
// this for transient-failure windows.
func (h *VMHost) SetCloneFault(fn func() error) { h.cloneFault = fn }

// SetCloneLatencyFactor scales modeled flash-clone latency by factor
// (values > 1 model a latency spike: contended storage, a busy control
// plane). Factors <= 0 or == 1 restore normal latency.
func (h *VMHost) SetCloneLatencyFactor(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	h.cloneSlow = factor
}

// checkFault applies the down state and the injected-fault hook to an
// admission decision.
func (h *VMHost) checkFault() error {
	if h.down {
		h.stats.CloneRejects++
		return ErrHostDown
	}
	if h.cloneFault != nil {
		if err := h.cloneFault(); err != nil {
			h.stats.CloneFaults++
			return err
		}
	}
	return nil
}

// slowed applies the clone-latency spike factor to a modeled duration.
func (h *VMHost) slowed(d time.Duration) time.Duration {
	if h.cloneSlow > 0 && h.cloneSlow != 1 {
		return time.Duration(float64(d) * h.cloneSlow)
	}
	return d
}
