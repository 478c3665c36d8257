package gateway

import (
	"potemkin/internal/sim"
)

// Outbound rate limiting is the containment middle ground the paper
// discusses: instead of dropping a class of traffic outright, cap how
// fast any one VM can emit it. A worm's propagation utility collapses
// at a few packets per second while an interactive session barely
// notices — so rate limits preserve fidelity that hard drops destroy,
// at a bounded worst-case leak rate.
//
// The limiter is a classic token bucket per binding, refilled in
// virtual time: capacity Burst tokens, refill Rate tokens/second.

// RateLimit configures per-binding outbound shaping. The zero value
// disables limiting.
type RateLimit struct {
	// Rate is sustained packets/second allowed per binding.
	Rate float64
	// Burst is the bucket depth (instantaneous burst allowance).
	// Zero with a nonzero Rate defaults to max(1, Rate/2).
	Burst float64
}

// Enabled reports whether the limit is active.
func (rl RateLimit) Enabled() bool { return rl.Rate > 0 }

// bucket is one binding's token state.
type bucket struct {
	tokens float64
	last   sim.Time
}

// take attempts to spend one token at virtual time now.
func (b *bucket) take(now sim.Time, rl RateLimit) bool {
	burst := rl.Burst
	if burst <= 0 {
		burst = rl.Rate / 2
		if burst < 1 {
			burst = 1
		}
	}
	elapsed := now.Sub(b.last)
	if elapsed > 0 {
		b.tokens += float64(rl.Rate * elapsed.Seconds()) // float64 rounds the product: no fused multiply-add (make vet)
		b.last = now
	}
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// allowOutbound applies the configured rate limit to an
// about-to-be-externalized packet from binding b. Packets over the
// limit are counted and dropped.
func (g *Gateway) allowOutbound(now sim.Time, b *Binding) bool {
	if !g.Cfg.OutboundLimit.Enabled() || b == nil {
		return true
	}
	if !b.limited {
		burst := g.Cfg.OutboundLimit.Burst
		if burst <= 0 {
			burst = g.Cfg.OutboundLimit.Rate / 2
			if burst < 1 {
				burst = 1
			}
		}
		b.rate, b.limited = bucket{tokens: burst, last: now}, true
	}
	if b.rate.take(now, g.Cfg.OutboundLimit) {
		return true
	}
	g.stats.OutRateLimited++
	return false
}

// DefaultOutboundLimit is a worm-crippling but session-friendly cap.
func DefaultOutboundLimit() RateLimit {
	return RateLimit{Rate: 2, Burst: 10}
}
