package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Record is the serialized form of a finished span: what the JSONL
// exporter writes, what ReadAll parses back, and what the Chrome
// exporter converts. All times are simulated nanoseconds, as exact
// integers, so a fixed-seed run serializes byte-identically.
type Record struct {
	Trace   uint64      `json:"trace"`
	Span    uint64      `json:"span"`
	Parent  uint64      `json:"parent,omitempty"`
	Name    string      `json:"name"`
	StartNS int64       `json:"start_ns"`
	EndNS   int64       `json:"end_ns"`
	Attrs   []Attr      `json:"attrs,omitempty"`
	Events  []SpanEvent `json:"events,omitempty"`
}

// DurationNS returns the span length in nanoseconds.
func (r Record) DurationNS() int64 { return r.EndNS - r.StartNS }

// Attr returns the value of the named attribute, or "".
func (r Record) Attr(k string) string {
	for _, a := range r.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// JSONL returns a sink writing one JSON object per finished span to w,
// in finish order. Write errors are reported through errFn (nil to
// ignore) — exporting must never take the simulation down.
func JSONL(w io.Writer, errFn func(error)) Sink {
	enc := json.NewEncoder(w)
	return func(rec Record) {
		if err := enc.Encode(rec); err != nil && errFn != nil {
			errFn(err)
		}
	}
}

// ReadAll parses a JSONL trace back into records (inspect trace).
func ReadAll(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// ChromeWriter emits the Chrome trace-event format (the JSON array
// loadable in Perfetto or chrome://tracing). Each span becomes a
// complete ("X") event on pid 1 with tid = trace ID, so every binding
// lifecycle renders as its own row; span events become instant ("i")
// events on the same row, and the first span of each trace emits a
// thread_name metadata record naming the row after the binding.
type ChromeWriter struct {
	w     *bufio.Writer
	n     int
	named map[uint64]bool
	err   error
}

// NewChromeWriter starts the JSON array on w. Call Close to terminate
// it — a truncated array loads in neither viewer.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	cw := &ChromeWriter{w: bufio.NewWriter(w), named: make(map[uint64]bool)}
	cw.raw("[\n")
	return cw
}

// chromeEvent is one trace-event object. Timestamps are microseconds;
// they are emitted as exact decimals of the nanosecond clock so output
// stays byte-stable.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   jsonMicros        `json:"ts"`
	Dur  *jsonMicros       `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  uint64            `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// jsonMicros renders nanoseconds as fixed-point microseconds ("12.345")
// without float formatting, keeping the encoding exact and stable.
type jsonMicros int64

func (m jsonMicros) MarshalJSON() ([]byte, error) {
	ns := int64(m)
	neg := ns < 0
	if neg {
		ns = -ns
	}
	b := make([]byte, 0, 24)
	if neg {
		b = append(b, '-')
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	b = append(b, '.')
	frac := ns % 1000
	b = append(b, byte('0'+frac/100), byte('0'+(frac/10)%10), byte('0'+frac%10))
	return b, nil
}

// Write converts one span record to trace events.
func (cw *ChromeWriter) Write(rec Record) {
	if cw.err != nil {
		return
	}
	if !cw.named[rec.Trace] {
		cw.named[rec.Trace] = true
		name := rec.Name
		if addr := rec.Attr("addr"); addr != "" {
			name = name + " " + addr
		}
		cw.event(chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: rec.Trace,
			Args: map[string]string{"name": name},
		})
	}
	args := make(map[string]string, len(rec.Attrs))
	for _, a := range rec.Attrs {
		args[a.K] = a.V
	}
	dur := jsonMicros(rec.DurationNS())
	cw.event(chromeEvent{
		Name: rec.Name, Cat: rec.Name, Ph: "X",
		TS: jsonMicros(rec.StartNS), Dur: &dur,
		PID: 1, TID: rec.Trace, Args: args,
	})
	for _, ev := range rec.Events {
		var evArgs map[string]string
		if ev.Detail != "" {
			evArgs = map[string]string{"detail": ev.Detail}
		}
		cw.event(chromeEvent{
			Name: ev.Name, Cat: "event", Ph: "i",
			TS: jsonMicros(ev.TNS), PID: 1, TID: rec.Trace,
			S: "t", Args: evArgs,
		})
	}
}

func (cw *ChromeWriter) event(ev chromeEvent) {
	b, err := json.Marshal(ev)
	if err != nil {
		cw.err = err
		return
	}
	if cw.n > 0 {
		cw.raw(",\n")
	}
	cw.n++
	cw.raw("  ")
	cw.rawBytes(b)
}

func (cw *ChromeWriter) raw(s string) {
	if cw.err == nil {
		_, cw.err = cw.w.WriteString(s)
	}
}

func (cw *ChromeWriter) rawBytes(b []byte) {
	if cw.err == nil {
		_, cw.err = cw.w.Write(b)
	}
}

// Close terminates the JSON array and flushes. Returns the first error
// encountered while writing.
func (cw *ChromeWriter) Close() error {
	cw.raw("\n]\n")
	if cw.err != nil {
		return cw.err
	}
	return cw.w.Flush()
}
