package gateway

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"potemkin/internal/mem"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/trace"
)

// The event log is the honeyfarm's forensic record: who was bound when,
// which VMs were flagged, what was reflected where. Operators replay it
// to reconstruct an incident after the VMs themselves have been
// recycled — checkpoints capture state, the log captures history.

// EventKind classifies a logged event.
type EventKind string

// Logged event kinds.
const (
	EvBound       EventKind = "bound"        // address bound, clone requested
	EvActive      EventKind = "active"       // VM live, queued packets flushed
	EvSpawnFail   EventKind = "spawn-fail"   // backend could not provide a VM
	EvSpawnRetry  EventKind = "spawn-retry"  // failed spawn re-requested after backoff
	EvShed        EventKind = "shed"         // new binding refused while shedding load
	EvBackendLost EventKind = "backend-lost" // backend reported the binding's VM lost
	EvRecycled    EventKind = "recycled"     // binding reclaimed
	EvDetected    EventKind = "detected"     // scan detector flagged the VM
	EvReflected   EventKind = "reflected"    // outbound redirected into the farm
	EvDNSProxied  EventKind = "dns-proxied"  // lookup rewritten to the safe resolver
)

// Event is one log record.
type Event struct {
	T    float64   `json:"t"` // seconds of simulated time
	Kind EventKind `json:"kind"`
	// Addr is the honeyfarm address the event concerns.
	Addr string `json:"addr"`
	// Peer is the relevant remote address, when there is one.
	Peer string `json:"peer,omitempty"`
	// Detail carries kind-specific context (target count, error text…).
	Detail string `json:"detail,omitempty"`
}

// EventSink consumes log records.
type EventSink func(Event)

// JSONLSink returns a sink that writes one JSON object per line to w.
// Encoding errors are reported through errFn (nil to ignore), never by
// panicking — logging must not take the gateway down.
func JSONLSink(w io.Writer, errFn func(error)) EventSink {
	enc := json.NewEncoder(w)
	return func(ev Event) {
		if err := enc.Encode(ev); err != nil && errFn != nil {
			errFn(err)
		}
	}
}

// ArenaSink returns a sink that appends one JSON line per event into a
// grow-once arena with zero per-event allocations — the buffered
// per-domain form the shard engine flushes in shard order on Close. The
// bytes are identical to JSONLSink's (appendEvent mirrors
// encoding/json), so arena-buffered and streamed logs compare equal.
func ArenaSink(a *mem.Arena) EventSink {
	return func(ev Event) {
		a.SetBuf(appendEvent(a.Buf(), ev))
	}
}

// appendEvent appends ev as one encoding/json-identical JSON line.
func appendEvent(b []byte, ev Event) []byte {
	b = append(b, `{"t":`...)
	b = appendJSONFloat(b, ev.T)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, string(ev.Kind))
	b = append(b, `,"addr":`...)
	b = appendJSONString(b, ev.Addr)
	if ev.Peer != "" {
		b = append(b, `,"peer":`...)
		b = appendJSONString(b, ev.Peer)
	}
	if ev.Detail != "" {
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, ev.Detail)
	}
	return append(b, '}', '\n')
}

// appendJSONFloat formats f exactly as encoding/json does: shortest
// representation, 'f' form inside [1e-6, 1e21), 'e' form outside with
// the exponent's leading zero trimmed (1e-09 → 1e-9).
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s exactly as encoding/json (HTML-escaping
// variant): control characters, quote, backslash, <, >, & are escaped,
// U+2028/U+2029 are escaped for script-embedding safety, and invalid
// UTF-8 becomes �.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				b = append(b, c)
				i++
				continue
			}
			switch c {
			case '"':
				b = append(b, '\\', '"')
			case '\\':
				b = append(b, '\\', '\\')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, `\ufffd`...)
			i++
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			continue
		}
		b = append(b, s[i:i+size]...)
		i += size
	}
	return append(b, '"')
}

// logging reports whether logEvent records anything: a caller whose
// detail costs an allocation builds it only then.
func (g *Gateway) logging() bool { return g.Cfg.EventSink != nil || g.Cfg.Tracer != nil }

// logEvent emits a record if a sink is configured, and folds the same
// event onto the address's binding span when tracing is on — one source
// of truth, two views. Events with no live binding (a shed refusal)
// become standalone instant spans so the trace fully subsumes the log.
func (g *Gateway) logEvent(now sim.Time, kind EventKind, addr netsim.Addr, peer netsim.Addr, detail string) {
	if !g.logging() {
		return
	}
	if g.Cfg.EventSink != nil {
		ev := Event{T: now.Seconds(), Kind: kind, Addr: addr.String(), Detail: detail}
		if peer != 0 {
			ev.Peer = peer.String()
		}
		g.Cfg.EventSink(ev)
	}
	if tr := g.Cfg.Tracer; tr != nil {
		d := detail
		if peer != 0 {
			if d != "" {
				d = peer.String() + " " + d
			} else {
				d = peer.String()
			}
		}
		if b := g.bindings[addr]; b != nil && b.span != nil {
			b.span.Event(now, string(kind), d)
		} else {
			attrs := []trace.Attr{{K: "addr", V: addr.String()}}
			if d != "" {
				attrs = append(attrs, trace.Attr{K: "detail", V: d})
			}
			tr.Instant(now, string(kind), attrs...)
		}
	}
}
