package guest

import (
	"time"

	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// Honeypot fingerprinting and C2 beaconing: the adversary behaviours
// ROADMAP item 4 asks for. A fingerprinting guest probes canary
// destinations after infection and counts consecutive silences; a
// contained farm either answers nothing (drop-all — fast fingerprint)
// or answers everything through internal reflection (slow or never —
// the deception holds, at clone cost). A C2 guest beacons its
// controller on a fixed period, giving the containment policy a
// steady stream of egress attempts to score. Both stop the moment the
// guest goes quiet, which is what the scorecard's deception-survival
// metric measures.

// active reports whether the guest should still run attacker behaviour.
func (in *Instance) active() bool {
	return !in.stopped && in.Infected && !in.quiet && in.VM.State != vmm.StateDead
}

// startDeception launches the canary and beacon processes; called once
// on infection.
func (in *Instance) startDeception() {
	in.scheduleCanary()
	in.scheduleBeacon()
}

func (in *Instance) scheduleCanary() {
	if in.Profile.CanaryRatePerSec <= 0 || in.pick == nil {
		return
	}
	in.after(time.Duration(in.rng.Exp(1e9/in.Profile.CanaryRatePerSec)), in.onCanary)
}

func (in *Instance) canaryTick(sim.Time) {
	in.fired()
	if !in.active() {
		return
	}
	if in.VM.State == vmm.StateRunning {
		in.emitCanary()
	}
	in.scheduleCanary()
}

// emitCanary opens a canary connection: a plain SYN to a picked
// address on the canary port, tracked client-side so the SYN-ACK (if
// any) clears suspicion. The timeout fires on the kernel, so the whole
// check is deterministic.
func (in *Instance) emitCanary() {
	dst := in.pick(&in.rng)
	srcPort := in.ephemeralPort()
	now := in.K.Now()
	key := connKey{remote: dst, rport: in.Profile.canaryPort(), lport: srcPort, client: true}
	iss := uint32(in.rng.Uint64()) | 1
	_, c := in.conns.insert(now, key)
	c.flagsOlder |= connCanary
	c.setState(tcpSynSent)
	c.iss, c.sndNxt = iss, iss+1
	in.stats.CanariesOut++
	in.actions++
	in.sendSegment(dst, srcPort, key.rport, iss, 0, netsim.FlagSYN, nil)

	in.after(in.Profile.canaryTimeout(), func(sim.Time) {
		in.fired()
		if in.stopped {
			return
		}
		h, cc := in.conns.lookup(key)
		if cc == nil || !cc.canary() || cc.state() != tcpSynSent {
			return // answered (or evicted); answered canaries reset suspicion
		}
		in.conns.remove(h)
		if !in.Infected || in.quiet {
			return
		}
		in.suspicion++
		if in.suspicion >= in.Profile.fingerprintThreshold() {
			in.goQuiet()
		}
	})
}

// canaryAnswered handles a SYN-ACK on a canary connection: something
// out there talks back, so the world looks real again.
func (in *Instance) canaryAnswered(h uint16, c *tcpConn) {
	in.suspicion = 0
	// Be polite: reset the probe connection like a scanner would.
	in.sendSegment(c.remote, c.lport, c.rport,
		c.sndNxt, c.rcvNxt, netsim.FlagRST, nil)
	in.conns.remove(h)
}

// goQuiet is the fingerprint decision: the guest concludes it is in a
// honeypot and ceases all attacker behaviour. The deception-survival
// histogram records how many actions the farm extracted first.
func (in *Instance) goQuiet() {
	if in.quiet {
		return
	}
	in.quiet = true
	in.stats.Fingerprinted++
	in.inst.Deception.Observe(float64(in.actions))
}

func (in *Instance) scheduleBeacon() {
	if in.Profile.C2Server == 0 {
		return
	}
	in.after(in.Profile.beaconPeriod(), in.onBeacon)
}

func (in *Instance) beaconTick(sim.Time) {
	in.fired()
	if !in.active() {
		return
	}
	if in.VM.State == vmm.StateRunning {
		in.emitBeacon()
	}
	in.scheduleBeacon()
}

// emitBeacon sends one C2 check-in: a SYN|PSH to the controller
// carrying a recognizable marker, egress for the containment policy to
// allow, reflect, or drop.
func (in *Instance) emitBeacon() {
	in.stats.BeaconsOut++
	in.actions++
	in.reply(in.synPSH(in.Profile.C2Server, in.ephemeralPort(), in.Profile.c2Port(),
		uint32(in.rng.Uint64()), beaconPayloads[in.Generation%10]))
}

// beaconPayloads are the beacon markers by generation mod 10, shared
// read-only by every guest.
var beaconPayloads = func() (b [10][]byte) {
	for i := range b {
		b[i] = []byte("C2 beacon gen" + string(rune('0'+i)))
	}
	return b
}()
