package cluster

import (
	"potemkin/internal/core"
	"potemkin/internal/netsim"
)

// Inject schedules pkt for delivery to its owning shard at the barrier
// clock, through the opening barrier of the next epoch: behind the
// cross-shard deliveries already due there, ahead of freshly fed
// records. ShardEngine.InjectBarrier is the single-process equivalent
// with identical event ordering — use that as the oracle when comparing
// runs. Call between runs, after WaitReady (driver goroutine).
func (c *Coordinator) Inject(pkt *netsim.Packet) {
	if c.started() {
		now := c.runner.Now()
		s := core.OwnerOf(c.space, c.shards, pkt.Dst)
		id := c.slotOf(s)
		c.inputs[id] = appendInject(c.inputs[id], s, now, pkt)
		c.inputsNext = min(c.inputsNext, now)
	}
}
