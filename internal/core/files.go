package core

// A domain's files: the gateway capture (in.pcap, tovm.pcap, out.pcap)
// and the detection checkpoints. Each domain opens, writes and closes
// its own, as it keeps its own event-log and trace buffers, so a
// cluster worker writes its shards' files exactly as the in-process
// engine does. Both are pure functions of the seed: a recovered slot
// that recreates them and replays from clock 0 writes the same bytes.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"potemkin/internal/gateway"
	"potemkin/internal/ingest"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// captureFile is one open capture savefile: full marshaled packets,
// classic pcap.
type captureFile struct {
	f  *os.File
	pw *ingest.PcapWriter
}

// captureNames names each direction's savefile.
var captureNames = [...]string{gateway.CapInbound: "in", gateway.CapToVM: "tovm", gateway.CapEgress: "out"}

// createCapture creates the domain's capture savefiles under dir and
// returns the gateway tap that writes them. On error the files already
// created are flushed and closed.
func (d *ShardDomain) createCapture(dir string) (gateway.CaptureSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i, name := range captureNames {
		f, err := os.Create(filepath.Join(dir, name+".pcap"))
		if err != nil {
			d.closeFiles()
			return nil, err
		}
		pw, err := ingest.NewPcapWriter(f)
		if err != nil {
			f.Close()
			d.closeFiles()
			return nil, err
		}
		d.captures[i] = captureFile{f: f, pw: pw}
	}
	var buf []byte // marshal scratch
	return func(now sim.Time, dir gateway.Direction, pkt *netsim.Packet) {
		if n := pkt.WireLen(); cap(buf) < n {
			buf = make([]byte, n)
		} else {
			buf = buf[:n]
		}
		pkt.MarshalInto(buf)
		d.keep(d.captures[dir].pw.WritePacket(now, buf))
	}, nil
}

// saveCheckpoint writes the delta checkpoint of vm, bound to addr and
// just flagged by the scan detector, to dir/<addr>-<t>.ckpt.
func saveCheckpoint(dir string, now sim.Time, addr netsim.Addr, vm *vmm.VM) error {
	if vm == nil {
		return errors.New("no VM bound")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%.3fs.ckpt", addr, now.Seconds())))
	if err != nil {
		return err
	}
	if _, err := vmm.TakeCheckpoint(vm).WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// keep records err as the domain's file error if it is the first.
func (d *ShardDomain) keep(err error) {
	if d.fileErr == nil {
		d.fileErr = err
	}
}

// closeFiles flushes and closes the domain's open capture files.
func (d *ShardDomain) closeFiles() {
	for i, c := range d.captures {
		if c.f != nil {
			d.keep(c.pw.Flush())
			d.keep(c.f.Close())
			d.captures[i] = captureFile{}
		}
	}
}
