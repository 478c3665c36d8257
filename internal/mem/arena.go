package mem

// Arena is a grow-once append buffer for the shard engine's buffered
// sinks (event log, span trace). Unlike bytes.Buffer it
// exposes its backing slice, so encoders can append records in place
// with zero per-record allocations: capacity grows amortized-once to
// the run's high-water mark and is reused for the rest of the run.
//
// The flush contract matches the per-domain sink discipline: exactly
// one domain goroutine appends during an epoch, the barrier orders
// those appends, and Bytes is read single-threaded at shard-order flush
// time. Arena itself is not synchronized.
type Arena struct {
	buf []byte
}

// NewArena returns an arena with the given initial capacity.
func NewArena(capacity int) *Arena {
	return &Arena{buf: make([]byte, 0, capacity)}
}

// Write appends p, implementing io.Writer for encoders that stream
// (the span-trace JSONL sink). It never fails.
func (a *Arena) Write(p []byte) (int, error) {
	a.buf = append(a.buf, p...)
	return len(p), nil
}

// Buf returns the backing slice for in-place append encoding; pair with
// SetBuf: a.SetBuf(appendRecord(a.Buf(), rec)).
func (a *Arena) Buf() []byte { return a.buf }

// SetBuf installs the slice returned by an append encoder.
func (a *Arena) SetBuf(b []byte) { a.buf = b }

// Bytes returns the accumulated contents. The slice aliases the arena:
// valid until the next append or Reset.
func (a *Arena) Bytes() []byte { return a.buf }

// Len returns the accumulated length in bytes.
func (a *Arena) Len() int { return len(a.buf) }

// Reset empties the arena, keeping its capacity for reuse.
func (a *Arena) Reset() { a.buf = a.buf[:0] }
