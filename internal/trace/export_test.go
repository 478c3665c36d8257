package trace

import "potemkin/internal/metrics"

// Children returns the direct children of span id, in stream order.
func (a *Analysis) Children(id uint64) []*Record { return a.children[id] }

// Stage returns the latency histogram (milliseconds) for the named
// span, or nil.
func (a *Analysis) Stage(name string) *metrics.Histogram { return a.stages[name] }
