package gateway

// spareHeld reports how many spare held packets the free list keeps.
func (g *Gateway) spareHeld() int { return len(g.freeHeld) }

// Peers returns the number of remembered peers.
func (b *Binding) Peers() int { return b.peers.len() }

// Detected reports whether the scan detector flagged this binding.
func (b *Binding) Detected() bool { return b.detected }

// OutTargets returns the number of distinct outbound targets attempted.
func (b *Binding) OutTargets() int { return len(b.outTargets) }
