package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"potemkin/internal/core"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/telescope"
)

const ms = sim.Time(time.Millisecond)

// crossTo is an encoded cross input at the given time for addr, which
// the test engine config's shard addr%4 owns.
func crossTo(at sim.Time, addr string) []byte {
	return appendCross(nil, at, netsim.TCPSyn(netsim.MustParseAddr("198.51.100.1"), netsim.MustParseAddr(addr), 40000, 445, 1))
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

func (fc *fakeCoordinator) send(typ msgType, v any) {
	fc.t.Helper()
	if err := writeMsg(fc.c, typ, v); err != nil {
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

// TestWorkerRejectsTimesBeforeItsClock: a coordinator frame naming a
// time the worker's kernels are not at — an epoch opening before the
// last one closed, a recovery checkpoint based away from the worker's
// clock — is a protocol error. The
// worker reports it, drops the connection and returns, where scheduling
// the frame's inputs used to panic the process.
func TestWorkerRejectsTimesBeforeItsClock(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(fc *fakeCoordinator)
	}{
		{"epoch", func(fc *fakeCoordinator) {
			fc.assign()
			fc.send(msgEpoch, epochMsg{Seq: 0, Start: 0, End: 10 * ms})
			fc.expect(msgEpochDone)
			fc.send(msgEpoch, epochMsg{Seq: 1, Start: ms, End: 2 * ms,
				Inputs: []shardInputs{{Shard: 0, Inputs: crossTo(ms, "10.5.0.4")}}})
		}},
		{"restore", func(fc *fakeCoordinator) {
			cfg := testEngineConfig(3, nil)
			ck := &Checkpoint{
				Shard: 0, Shards: cfg.Shards, Seed: cfg.Seed,
				ConfigHash: configHash(testTag, cfg.Shards, cfg.Seed, cfg.Normalized().Lookahead),
				Base:       10 * ms, Through: 12 * ms,
				Epochs: []EpochInputs{{Start: 11 * ms, End: 12 * ms, Inputs: crossTo(11*ms, "10.5.0.4")}},
			}
			fc.send(msgAssign, assignMsg{Worker: 0, Shards: []int{0}, Checkpoints: [][]byte{ck.Encode()}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := serveWorker(t, testEngineConfig(3, nil))
			tc.run(fc)
			var em errorMsg
			unmarshal(fc.expect(msgError).payload, &em)
			if !strings.Contains(em.Text, "before the worker's clock") && !strings.Contains(em.Text, "is not the worker's clock") {
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
			fc.send(msgEpoch, epochMsg{Seq: 0, Start: 0, End: 10 * ms})
			fc.expect(msgEpochDone)
			fc.send(msgShutdown, struct{}{})
		}, func(err error) bool { return err == nil }},
		{"killed", true, func(fc *fakeCoordinator) {
			fc.assign()
			fc.send(msgEpoch, epochMsg{Seq: 0, Start: 0, End: 20 * ms})
		}, func(err error) bool { return errors.Is(err, ErrKilled) }},
		{"protocol error", false, func(fc *fakeCoordinator) {
			fc.assign()
			fc.send(msgEpoch, epochMsg{Seq: 0, Start: 0, End: 10 * ms,
				Inputs: []shardInputs{{Shard: 1, Inputs: crossTo(ms, "10.5.0.5")}}})
			fc.expect(msgError)
		}, func(err error) bool { return err != nil && !errors.Is(err, ErrKilled) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := testEngineConfig(3, nil)
			if tc.faults {
				cfg.Fault = killFaults(5*time.Millisecond, 0)
			}
			fc := serveWorker(t, cfg)
			tc.run(fc)
			if err := fc.finish(); !tc.want(err) {
				t.Fatalf("RunWorker returned %v", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the worker ran, %d after it returned:\n%s",
					before, n, buf[:runtime.Stack(buf, true)])
			}
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
	first := mustJSON(f, epochMsg{Seq: 0, Start: 0, End: 10 * ms, Inputs: []shardInputs{
		{Shard: 0, Inputs: crossTo(2*ms, "10.5.0.4")},
		{Shard: 2, Inputs: appendRecord(nil, 5*ms, rec)},
	}})
	epoch := func(start, end sim.Time, in ...shardInputs) []byte {
		return mustJSON(f, epochMsg{Seq: 1, Start: start, End: end, Inputs: in})
	}
	in := crossTo(10*ms, "10.5.0.6")
	f.Add(epoch(10*ms, 20*ms, shardInputs{Shard: 2, Inputs: in}))                           // accepted
	f.Add(epoch(ms, 2*ms, shardInputs{Shard: 0, Inputs: crossTo(ms, "10.5.0.4")}))          // before the clock
	f.Add(epoch(10*ms, 20*ms, shardInputs{Shard: 0, Inputs: crossTo(9*ms, "10.5.0.4")}))    // input before the start
	f.Add(epoch(10*ms, 20*ms, shardInputs{Shard: 1, Inputs: in}))                           // a shard it does not own
	f.Add(epoch(10*ms, 20*ms, shardInputs{Shard: 2, Inputs: in[:len(in)-1]}))               // truncated input
	f.Add(epoch(10*ms, 5*ms, shardInputs{Shard: 2, Inputs: appendRecord(nil, 30*ms, rec)})) // ends before it starts
	f.Add([]byte("{"))

	f.Fuzz(func(t *testing.T, payload []byte) {
		var m epochMsg
		if json.Unmarshal(payload, &m) == nil && m.End > limit {
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
