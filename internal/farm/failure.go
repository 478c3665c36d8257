package farm

import (
	"sort"

	"potemkin/internal/gateway"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// Farm-level failure handling: server crashes kill resident VMs, strand
// their gateway bindings, and orphan clones in flight. CrashServer
// cleans all three up — bindings are reported back to the gateway for
// recycling, and in-flight clone requests are re-placed on surviving
// servers through the normal retry path.

// CrashServer crashes server i (0-based): every VM on it dies, its
// stranded bindings are recycled through the gateway, and clones in
// flight on it are retried on healthy servers. Placement skips the
// server until RecoverServer. Returns the number of VMs killed;
// crashing an already-down server is a no-op.
func (f *Farm) CrashServer(now sim.Time, i int) int {
	h := f.hosts[i]
	if h.Down() {
		return 0
	}
	// Collect the addresses resident on the dying server before its VM
	// table is wiped, sorted so the gateway sees a deterministic
	// recycle order (map iteration is randomized).
	var addrs []netsim.Addr
	for a, fv := range f.byAddr {
		if fv.Host == h {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(x, y int) bool { return addrs[x] < addrs[y] })
	killed := h.Crash()

	// Report stranded bindings so the gateway frees the addresses; the
	// recycle path runs FarmVM.Destroy, which cleans byAddr. Without a
	// Recycler frontend (or for a binding the gateway no longer holds),
	// clean up farm-side directly.
	rec, _ := f.gw.(gateway.Recycler)
	for _, a := range addrs {
		fv := f.byAddr[a]
		if fv == nil {
			continue
		}
		if rec != nil && rec.RecycleBinding(now, a, "server crash: "+h.Cfg.Name) {
			f.stats.CrashRecycles++
			continue
		}
		fv.Destroy(now)
	}

	// Clones in flight on the dead server will never call ready; retry
	// them on the survivors. Iterate over a copy: failOrRetry may
	// splice the in-flight list.
	reqs := make([]*spawnReq, len(f.inflight))
	copy(reqs, f.inflight)
	for _, req := range reqs {
		if req.host == h && !req.done {
			f.failOrRetry(now, req, h, vmm.ErrHostDown)
		}
	}
	return killed
}

// RecoverServer returns a crashed server to service, empty. Placement
// sees it again immediately.
func (f *Farm) RecoverServer(i int) { f.hosts[i].Recover() }

// UpServers counts servers currently in service.
func (f *Farm) UpServers() int {
	n := 0
	for _, h := range f.hosts {
		if !h.Down() {
			n++
		}
	}
	return n
}

// SetLinkDown cuts (true) or restores (false) the farm<->gateway data
// link. While cut, guest-originated packets and gateway-to-VM
// deliveries are dropped and counted as LinkDrops. The control channel
// — clone requests and completions — stays up, so the gateway.Backend
// contract (ready fires exactly once) holds through an outage.
func (f *Farm) SetLinkDown(down bool) { f.linkDown = down }

// LinkDown reports whether the farm<->gateway data link is cut.
func (f *Farm) LinkDown() bool { return f.linkDown }
