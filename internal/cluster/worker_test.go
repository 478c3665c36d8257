package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

const ms = sim.Time(time.Millisecond)

// crossTo is an encoded cross input from shard src to shard dst at the
// given time, for addr, which the test engine config's shard addr%4
// owns.
func crossTo(src, dst int, at sim.Time, addr string) []byte {
	return appendCross(nil, src, dst, at, netsim.TCPSyn(netsim.MustParseAddr("198.51.100.1"), netsim.MustParseAddr(addr), 40000, 445, 1))
}

// epochFrame is an epoch frame over the concatenated inputs.
func epochFrame(seq uint64, start, end sim.Time, inputs ...[]byte) []byte {
	return appendEpoch(nil, seq, start, end, bytes.Join(inputs, nil))
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fakeCoordinator plays the coordinator's side of the protocol by hand
// against one RunWorker, over loopback TCP.
type fakeCoordinator struct {
	t    *testing.T
	ln   net.Listener
	c    net.Conn
	done chan error // RunWorker's return
}

// serveWorker starts RunWorker over cfg and accepts its hello.
func serveWorker(t *testing.T, cfg core.ShardEngineConfig) *fakeCoordinator {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fc := &fakeCoordinator{t: t, ln: ln, done: make(chan error, 1)}
	go func() {
		fc.done <- RunWorker(WorkerConfig{
			Addr: ln.Addr().String(), Engine: cfg, ConfigTag: testTag, Name: "w",
			HeartbeatInterval: time.Hour, Logf: t.Logf,
		})
	}()
	if fc.c, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	// A test that fails midway still ends the worker: its read fails.
	t.Cleanup(func() { fc.c.Close(); ln.Close() })
	fc.expect(msgHello)
	return fc
}

// send writes a JSON control message.
func (fc *fakeCoordinator) send(typ msgType, v any) {
	fc.t.Helper()
	fc.write(typ, mustJSON(fc.t, v))
}

// write writes one frame.
func (fc *fakeCoordinator) write(typ msgType, payload []byte) {
	fc.t.Helper()
	if err := writeFrame(fc.c, typ, payload); err != nil {
		fc.t.Fatalf("sending %v: %v", typ, err)
	}
}

// expect reads the worker's next frame, which must be of type typ.
func (fc *fakeCoordinator) expect(typ msgType) frame {
	fc.t.Helper()
	fc.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	fr, err := readFrame(fc.c)
	if err != nil {
		fc.t.Fatalf("awaiting %v: %v", typ, err)
	}
	if fr.typ != typ {
		fc.t.Fatalf("got %v (%s), want %v", fr.typ, fr.payload, typ)
	}
	return fr
}

// assign hands the worker shards 0 and 2 as worker 0, a fresh slot.
func (fc *fakeCoordinator) assign() {
	fc.t.Helper()
	fc.send(msgAssign, assignMsg{Worker: 0, Shards: []int{0, 2}})
	fc.expect(msgReady)
}

// finish closes the coordinator's side and returns RunWorker's error.
func (fc *fakeCoordinator) finish() error {
	fc.t.Helper()
	defer fc.ln.Close()
	defer fc.c.Close()
	select {
	case err := <-fc.done:
		return err
	case <-time.After(30 * time.Second):
		fc.t.Fatal("RunWorker did not return")
		return nil
	}
}

// TestWorkerRejectsTimesBeforeItsClock: an epoch frame opening before
// the last one closed — live or replayed by a recovery — is a protocol
// error. The worker reports it, drops the connection and returns, where
// scheduling the frame's inputs used to panic the process.
func TestWorkerRejectsTimesBeforeItsClock(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(fc *fakeCoordinator)
	}{
		{"epoch", func(fc *fakeCoordinator) {
			fc.assign()
			fc.write(msgEpoch, epochFrame(0, 0, 10*ms))
			fc.expect(msgEpochDone)
			fc.write(msgEpoch, epochFrame(1, ms, 2*ms, crossTo(1, 0, ms, "10.5.0.4")))
		}},
		{"recovery", func(fc *fakeCoordinator) {
			fc.send(msgAssign, assignMsg{Worker: 0, Shards: []int{0, 2}, Recovery: true, Replay: 2})
			fc.write(msgEpoch, epochFrame(0, 0, 10*ms))
			fc.write(msgEpoch, epochFrame(1, ms, 2*ms, crossTo(1, 0, ms, "10.5.0.4")))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := serveWorker(t, testEngineConfig(3, nil))
			tc.run(fc)
			var em errorMsg
			unmarshal(fc.expect(msgError).payload, &em)
			if !strings.Contains(em.Text, "before the worker's clock") {
				t.Errorf("error frame %q does not name the clock", em.Text)
			}
			if err := fc.finish(); err == nil || errors.Is(err, ErrKilled) {
				t.Errorf("RunWorker returned %v, want the protocol error", err)
			}
		})
	}
}

// TestWorkerLeavesNoGoroutines: the worker's transport parks one
// goroutine per owned shard under Parallel, and RunWorker stops them —
// with the heartbeat sender — on every way out: a clean shutdown, an
// injected kill, and a protocol error.
func TestWorkerLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults bool
		run    func(fc *fakeCoordinator)
		want   func(error) bool
	}{
		{"shutdown", false, func(fc *fakeCoordinator) {
			fc.assign()
			fc.write(msgEpoch, epochFrame(0, 0, 10*ms))
			fc.expect(msgEpochDone)
			fc.send(msgShutdown, struct{}{})
		}, func(err error) bool { return err == nil }},
		{"killed", true, func(fc *fakeCoordinator) {
			fc.assign()
			fc.write(msgEpoch, epochFrame(0, 0, 20*ms))
		}, func(err error) bool { return errors.Is(err, ErrKilled) }},
		{"protocol error", false, func(fc *fakeCoordinator) {
			fc.assign()
			fc.write(msgEpoch, epochFrame(0, 0, 10*ms, crossTo(3, 1, ms, "10.5.0.5")))
			fc.expect(msgError)
		}, func(err error) bool { return err != nil && !errors.Is(err, ErrKilled) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, fds := resources()
			cfg := testEngineConfig(3, nil)
			if tc.faults {
				cfg.Fault = killFaults(5*time.Millisecond, 0)
			}
			fc := serveWorker(t, cfg)
			tc.run(fc)
			if err := fc.finish(); !tc.want(err) {
				t.Fatalf("RunWorker returned %v", err)
			}
			requireNoLeak(t, "the worker", g, fds)
		})
	}
}

// FuzzWorkerEpoch sends arbitrary epoch payloads to a worker owning
// shards 0 and 2 of 4, after one valid epoch to 10 ms. Each payload is
// rejected with an error or accepted and run; nothing panics.
func FuzzWorkerEpoch(f *testing.F) {
	const limit = sim.Time(time.Minute) // beyond this an epoch is slow, not wrong
	cfg := testEngineConfig(3, nil)
	rec := telescope.Record{
		Src: netsim.MustParseAddr("198.51.100.2"), Dst: netsim.MustParseAddr("10.5.0.6"),
		Proto: netsim.ProtoTCP, Flags: netsim.FlagSYN, SrcPort: 40001, DstPort: 445,
	}
	first := epochFrame(0, 0, 10*ms, crossTo(1, 0, 2*ms, "10.5.0.4"), appendRecord(nil, 2, 5*ms, rec))
	epoch := func(start, end sim.Time, in ...[]byte) []byte { return epochFrame(1, start, end, in...) }
	in := crossTo(3, 2, 10*ms, "10.5.0.6")
	f.Add(epoch(10*ms, 20*ms, in))                               // accepted
	f.Add(epoch(ms, 2*ms, crossTo(1, 0, ms, "10.5.0.4")))        // before the clock
	f.Add(epoch(10*ms, 20*ms, crossTo(1, 0, 9*ms, "10.5.0.4")))  // input before the start
	f.Add(epoch(10*ms, 20*ms, crossTo(3, 1, 10*ms, "10.5.0.5"))) // a shard it does not own
	f.Add(epoch(10*ms, 20*ms, in[:len(in)-1]))                   // truncated input
	f.Add(epoch(10*ms, 5*ms, appendRecord(nil, 2, 30*ms, rec)))  // ends before it starts
	f.Add([]byte("{"))                                           // not a frame
	f.Add(epoch(10*ms, 20*ms, crossTo(2, 0, 10*ms, "10.5.0.4"))) // from a shard it owns

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeEpoch(payload, cfg.Shards)
		if err == nil && m.End > limit {
			t.Skip()
		}
		w, err := newWorker(WorkerConfig{Engine: cfg, ConfigTag: testTag})
		if err != nil {
			t.Fatal(err)
		}
		pa, pb := net.Pipe()
		go io.Copy(io.Discard, pb)
		w.cn = newConn(pa)
		defer pb.Close()
		defer pa.Close()
		if err := w.handleAssign(mustJSON(t, assignMsg{Worker: 0, Shards: []int{0, 2}})); err != nil {
			t.Fatal(err)
		}
		defer w.local.Close()
		if err := w.handleEpoch(first); err != nil {
			t.Fatal(err)
		}
		if err := w.handleEpoch(payload); err != nil {
			return
		}
		if w.lastSeq.Load() != m.Seq || w.local.Now() < max(m.End, 10*ms) {
			t.Fatalf("accepted epoch %d to %v left the worker at epoch %d, clock %v", m.Seq, m.End, w.lastSeq.Load(), w.local.Now())
		}
	})
}
