package vmm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"potemkin/internal/mem"
	"potemkin/internal/netsim"
)

// Checkpointing captures what makes an infected VM worth keeping: its
// *delta* from the reference image — the privately-owned memory pages
// the malware dirtied — plus identity metadata. Because the image itself
// is content-addressed by name/seed, a checkpoint plus the image
// reconstructs the full VM, so checkpoints are small (a few MiB for a
// freshly-infected guest) and cheap to take at detection time, before
// the binding is recycled.

// Checkpoint file format constants. Version 2 dropped version 1's disk
// section, which no VM ever filled; a version-1 file fails with
// ErrBadCkptVer.
const (
	checkpointMagic   = 0x504f544b // "POTK"
	checkpointVersion = 2
)

// Checkpoint errors.
var (
	ErrBadCheckpoint = errors.New("vmm: not a checkpoint")
	ErrBadCkptVer    = errors.New("vmm: unsupported checkpoint version")
)

// maxCkptPages caps the page count read from untrusted checkpoint
// bytes, far above any checkpoint a real VM produces (2^24 4 KiB pages
// is 64 GiB of delta). A corrupt count field must fail fast, not drive a
// 2^60-iteration read loop.
const maxCkptPages = 1 << 24

// Checkpoint is a VM's captured delta state.
type Checkpoint struct {
	ImageName string
	IP        netsim.Addr
	// Pages maps guest page number -> page content for every page the
	// VM owns (CoW copies and zero-fills).
	Pages map[uint64][]byte
}

// TakeCheckpoint captures vm's delta state. The VM keeps running; the
// captured pages are copies.
func TakeCheckpoint(vm *VM) *Checkpoint {
	ck := &Checkpoint{
		ImageName: vm.Image.Name,
		IP:        vm.IP,
		Pages:     make(map[uint64][]byte),
	}
	vm.Mem.EachOwnedPage(func(vpn uint64) {
		ck.Pages[vpn] = vm.Mem.Read(vpn, 0, mem.PageSize)
	})
	vm.host.stats.Checkpoints++
	return ck
}

// Bytes returns the checkpoint's payload size (page content).
func (ck *Checkpoint) Bytes() uint64 {
	return uint64(len(ck.Pages)) * mem.PageSize
}

// WriteTo serializes the checkpoint.
func (ck *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	put32 := func(v uint32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		m, err := bw.Write(b[:])
		n += int64(m)
		return err
	}
	put64 := func(v uint64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		m, err := bw.Write(b[:])
		n += int64(m)
		return err
	}
	if err := put32(checkpointMagic); err != nil {
		return n, err
	}
	if err := put32(checkpointVersion); err != nil {
		return n, err
	}
	if err := put32(uint32(len(ck.ImageName))); err != nil {
		return n, err
	}
	m, err := bw.WriteString(ck.ImageName)
	n += int64(m)
	if err != nil {
		return n, err
	}
	if err := put32(uint32(ck.IP)); err != nil {
		return n, err
	}
	// Pages, sorted for deterministic output.
	vpns := make([]uint64, 0, len(ck.Pages))
	for vpn := range ck.Pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	if err := put64(uint64(len(vpns))); err != nil {
		return n, err
	}
	for _, vpn := range vpns {
		if err := put64(vpn); err != nil {
			return n, err
		}
		m, err := bw.Write(ck.Pages[vpn])
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadCheckpoint deserializes a checkpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	get32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	get64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	magic, err := get32()
	if err != nil {
		return nil, err
	}
	if magic != checkpointMagic {
		return nil, ErrBadCheckpoint
	}
	ver, err := get32()
	if err != nil {
		return nil, err
	}
	if ver != checkpointVersion {
		return nil, ErrBadCkptVer
	}
	nameLen, err := get32()
	if err != nil {
		return nil, err
	}
	if nameLen > 4096 {
		return nil, fmt.Errorf("vmm: absurd image name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	ip, err := get32()
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		ImageName: string(name),
		IP:        netsim.Addr(ip),
		Pages:     make(map[uint64][]byte),
	}
	nPages, err := get64()
	if err != nil {
		return nil, err
	}
	if nPages > maxCkptPages {
		return nil, fmt.Errorf("vmm: absurd checkpoint page count %d", nPages)
	}
	for i := uint64(0); i < nPages; i++ {
		vpn, err := get64()
		if err != nil {
			return nil, fmt.Errorf("vmm: truncated checkpoint at page %d of %d: %w", i, nPages, err)
		}
		page := make([]byte, mem.PageSize)
		if _, err := io.ReadFull(br, page); err != nil {
			return nil, fmt.Errorf("vmm: truncated checkpoint at page %d of %d: %w", i, nPages, err)
		}
		ck.Pages[vpn] = page
	}
	return ck, nil
}

// Restore instantiates the checkpoint as a new VM on host h: a flash
// clone of the same image with the delta pages replayed on top. The
// restored VM is created paused-equivalent (StateCloning) and becomes
// runnable through the usual clone completion.
func (h *VMHost) Restore(ck *Checkpoint, ready func(*VM)) (*VM, error) {
	vm, err := h.FlashClone(ck.ImageName, ck.IP, ready)
	if err != nil {
		return nil, err
	}
	// Validate the delta against the clone's actual geometry before
	// applying any of it: a checkpoint whose counts parsed fine can
	// still address pages the image doesn't have, and that must come
	// back as an error, not a panic from the memory layer mid-apply.
	for vpn, content := range ck.Pages {
		if vpn >= vm.Mem.NumPages() {
			h.Destroy(vm.ID)
			return nil, fmt.Errorf("vmm: checkpoint page %d outside image %q of %d pages",
				vpn, ck.ImageName, vm.Mem.NumPages())
		}
		if len(content) != mem.PageSize {
			h.Destroy(vm.ID)
			return nil, fmt.Errorf("vmm: checkpoint page %d has %d bytes, want %d",
				vpn, len(content), mem.PageSize)
		}
	}
	for vpn, content := range ck.Pages {
		vm.Mem.Write(vpn, 0, content)
	}
	return vm, nil
}
