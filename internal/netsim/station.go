package netsim

import (
	"time"

	"potemkin/internal/sim"
)

// Station models a single-server FIFO service point — the gateway box
// itself, as opposed to the wires around it. Packets arrive, wait for
// the server, occupy it for a fixed service time, and are then handed
// to Serve. It is the substrate for the load-vs-latency experiment:
// offered load beyond 1/Service collapses the queue exactly the way a
// saturated middlebox does.
type Station struct {
	K *sim.Kernel
	// Service is the per-packet service time (deterministic).
	Service time.Duration
	// QueueLimit bounds waiting packets (the in-service one excluded);
	// 0 means unbounded.
	QueueLimit int
	// Serve consumes each packet at its service completion.
	Serve func(now sim.Time, pkt *Packet)

	busyUntil sim.Time
	waiting   int

	Stats StationStats
}

// StationStats counts station activity.
type StationStats struct {
	Arrivals uint64
	Served   uint64
	Dropped  uint64 // queue overflow
}

// Arrive offers a packet to the station, returning false if the queue
// is full. The completion callback fires at now + wait + Service.
func (s *Station) Arrive(pkt *Packet) bool {
	s.Stats.Arrivals++
	if s.QueueLimit > 0 && s.waiting >= s.QueueLimit {
		s.Stats.Dropped++
		return false
	}
	now := s.K.Now()
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
		s.waiting++
	}
	done := start.Add(s.Service)
	s.busyUntil = done
	queued := start > now
	s.K.At(done, func(at sim.Time) {
		if queued {
			s.waiting--
		}
		s.Stats.Served++
		if s.Serve != nil {
			s.Serve(at, pkt)
		}
	})
	return true
}
