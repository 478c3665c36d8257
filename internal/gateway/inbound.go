package gateway

import (
	"errors"
	"strconv"

	"potemkin/internal/gre"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/trace"
)

// HandleGREFrame is the wire-level inbound entry point: a GRE frame as
// received from a telescope border router. It decapsulates, parses the
// inner IPv4 packet, and dispatches. This is the path the E4 throughput
// benchmark drives.
func (g *Gateway) HandleGREFrame(now sim.Time, frame []byte) {
	_, inner, err := gre.Decap(frame)
	if err != nil {
		g.stats.InboundNonIP++
		return
	}
	pkt, err := netsim.Unmarshal(inner)
	if err != nil {
		g.stats.InboundNonIP++
		return
	}
	g.HandleInbound(now, pkt)
}

// HandleInbound dispatches a parsed packet arriving from outside the
// honeyfarm (or re-injected by internal reflection).
func (g *Gateway) HandleInbound(now sim.Time, pkt *netsim.Packet) {
	g.stats.InboundPackets++
	g.capture(now, CapInbound, pkt)
	if !g.Cfg.Space.Contains(pkt.Dst) {
		g.stats.InboundOutside++
		return
	}
	b, ok := g.bindings[pkt.Dst]
	if !ok {
		if g.filterScan(pkt) {
			g.stats.ScanFiltered++
			return
		}
		b = g.bind(now, pkt.Dst, SpawnHint{Source: pkt.Src})
		if b == nil {
			return // spawn failed synchronously
		}
	}
	b.LastActive = now
	b.notePeer(pkt.Src)

	switch b.State {
	case BindingPending:
		if len(b.pending) >= pendingLimit {
			g.stats.PendingDropped++
			return
		}
		b.pending = append(b.pending, g.hold(pkt)) // queued past this dispatch: own the bytes
		g.pendingDepth++
		if g.Cfg.Tracer != nil {
			b.pendingAt = append(b.pendingAt, now)
		}
	case BindingActive:
		g.stats.DeliveredToVM++
		g.capture(now, CapToVM, pkt)
		b.VM.Deliver(now, pkt)
	}
}

// filterScan implements the redundant-scan shed: it reports whether
// this probe, which would otherwise instantiate a fresh VM, comes from
// a source whose probes to this port have already been serviced
// Cfg.ScanFilter times. Sources inside the monitored space (reflected
// or internal traffic) are never filtered — containment must observe
// them in full.
func (g *Gateway) filterScan(pkt *netsim.Packet) bool {
	if g.Cfg.ScanFilter <= 0 || g.Cfg.Space.Contains(pkt.Src) {
		return false
	}
	key := scanKey{src: pkt.Src, port: pkt.DstPort}
	if g.scanSeen[key] >= g.Cfg.ScanFilter {
		return true
	}
	g.scanSeen[key]++
	return false
}

// bind creates a pending binding for addr and requests a VM. Returns
// nil if the backend failed synchronously or the gateway is shedding
// load (ShedOnFull window after a backend-full failure).
func (g *Gateway) bind(now sim.Time, addr netsim.Addr, hint SpawnHint) *Binding {
	if g.Cfg.ShedOnFull > 0 && now < g.shedUntil {
		g.stats.BindingsShed++
		g.logEvent(now, EvShed, addr, hint.Source, "")
		return nil
	}
	b := g.newBinding(now, addr, hint)
	g.bindings[addr] = b
	g.scheduleExpiry(addr, b)
	g.stats.BindingsCreated++
	if n := len(g.bindings); n > g.stats.PeakBindings {
		g.stats.PeakBindings = n
	}
	detail := ""
	if hint.Reflected {
		detail = "reflected"
	}
	if tr := g.Cfg.Tracer; tr != nil {
		attrs := []trace.Attr{
			{K: "addr", V: addr.String()},
			{K: "src", V: hint.Source.String()},
		}
		if hint.Reflected {
			attrs = append(attrs, trace.Attr{K: "reflected", V: "true"})
		}
		b.span = tr.StartTrace(now, "binding", attrs...)
		tr.Push(uint64(addr), b.span)
	}
	g.logEvent(now, EvBound, addr, hint.Source, detail)
	g.requestVM(now, b)
	return g.bindings[addr]
}

// requestVM asks the backend for b's VM, b.attempt counting retries
// already spent. On failure it retries with exponential backoff while
// budget remains and the binding is still current; the final failure
// recycles the binding (keeping BindingsCreated == live + recycled).
func (g *Gateway) requestVM(now sim.Time, b *Binding) {
	tr := g.Cfg.Tracer
	if tr != nil && b.span != nil {
		b.spawnSpan = tr.StartChild(now, b.span, "spawn",
			trace.Attr{K: "attempt", V: strconv.Itoa(b.attempt)})
		// Expose the spawn span as the address's current context so the
		// backend (farm) parents its placement span under it. RequestVM
		// returns synchronously even when ready fires later, so the Pop
		// below restores the root before control returns to the caller.
		tr.Push(uint64(b.Addr), b.spawnSpan)
		defer tr.Pop(uint64(b.Addr), b.spawnSpan)
	}
	b.waiting = true
	g.backend.RequestVM(now, b.Addr, b.Hint, b.onReady)
}

// vmReady is the backend's answer to requestVM.
func (b *Binding) vmReady(vm VMRef, err error) {
	g := b.g
	b.waiting = false
	// The binding may have been recycled while the clone was in
	// flight; in that case destroy the late VM.
	if b.gone {
		if vm != nil {
			vm.Destroy(g.K.Now())
		}
		b.release()
		return
	}
	if err != nil {
		g.spawnFailed(b, err)
		return
	}
	b.VM = vm
	b.State = BindingActive
	flushAt := g.K.Now()
	b.spawnSpan.Finish(flushAt)
	g.logEvent(flushAt, EvActive, b.Addr, 0, "")
	if tr := g.Cfg.Tracer; tr != nil && b.span != nil {
		b.activeSpan = tr.StartChild(flushAt, b.span, "active")
		for _, at := range b.pendingAt {
			tr.ObserveStage("pending-wait", flushAt.Sub(at).Seconds()*1e3)
		}
		b.pendingAt = drained(b.pendingAt)
	}
	g.pendingDepth -= len(b.pending)
	for _, queued := range b.pending {
		g.stats.DeliveredToVM++
		g.capture(flushAt, CapToVM, queued)
		vm.Deliver(flushAt, queued)
		g.drop(queued)
	}
	b.pending = drained(b.pending)
}

// drained empties a queue whose packets have gone. It keeps the array
// for the binding's next clone only if it has at most pendingKeep
// slots: a longer one held a burst (a warm-up queues pendingLimit), and
// the binding would carry it for the rest of its life.
func drained[T any](q []T) []T {
	if cap(q) > pendingKeep {
		return nil
	}
	clear(q)
	return q[:0]
}

// spawnFailed handles a backend error for a still-current binding:
// retry after backoff if budget remains, otherwise tear down. The
// pending queue rides along across retries untouched.
func (g *Gateway) spawnFailed(b *Binding, err error) {
	now := g.K.Now()
	addr := b.Addr
	if b.spawnSpan != nil && !b.spawnSpan.Done() {
		b.spawnSpan.Event(now, "spawn-error", err.Error())
		b.spawnSpan.Finish(now)
	}
	if b.attempt < g.Cfg.SpawnRetryBudget {
		g.stats.SpawnRetries++
		g.logEvent(now, EvSpawnRetry, addr, 0, err.Error())
		b.waiting = true
		g.K.After(spawnRetryBackoff<<b.attempt, func(then sim.Time) {
			b.waiting = false
			if b.gone {
				b.release() // recycled while backing off
				return
			}
			b.attempt++
			g.requestVM(then, b)
		})
		return
	}
	g.stats.SpawnFailures++
	g.stats.PendingDropped += uint64(len(b.pending))
	g.logEvent(now, EvSpawnFail, addr, 0, err.Error())
	if g.Cfg.ShedOnFull > 0 && errors.Is(err, ErrBackendFull) {
		g.shedUntil = now.Add(g.Cfg.ShedOnFull)
	}
	g.recycle(now, addr, b)
}
