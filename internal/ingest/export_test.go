package ingest

// Test hooks that force the shapes the code falls back to on its own
// when the kernel will not segment or coalesce.

// DisableSegmentation makes the sender write every train one datagram
// per segment, as after a refused UDP_SEGMENT send.
func (s *WireSender) DisableSegmentation() { s.noSegment = true }

// DisableGRO switches UDP_GRO back off, as on a socket that never took
// it: every read is one datagram.
func (l *Listener) DisableGRO() { setGRO(l.pc, false) }
