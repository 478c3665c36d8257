package mem_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"potemkin/internal/mem"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/vmm"
)

// The model test: one sequence of clone / write / read / share-pass /
// checkpoint-restore / reserve / destroy operations is applied to three
// things at once — a host as shipped (faults are lazy deltas), a host
// where every written page is given its bytes immediately (what every
// fault did before lazy deltas) and whose clones never reserve index
// room, and a plain map of page arrays. After every step the shipped
// host's content must equal the map's, and every simulated statistic
// must equal the eager host's: laziness and reserving may move host
// cost only. Clones come from two images of different content and size.

const (
	// Guest-physical pages; the first image backs the first
	// modelResident, which straddle the page-table window's edge, so
	// faults land in the window and in the index.
	modelPages    = mem.WindowPages + 5
	modelResident = mem.WindowPages + 2
	modelSeed     = 4077
	// Eight clones of the first image own 72 delta pages between them:
	// room for 65 buffers of the 10-byte overflow class at once, one more
	// than its chunk holds.
	modelMaxVMs = 8

	// The second image backs only its first smallResident pages, of
	// another seed's content, so its clones fault fresh pages where the
	// first image's clones fault image pages, and the census every step
	// takes stays small.
	smallResident = 8
	smallSeed     = 5099
)

var (
	imageNames = [2]string{"img", "small"}
	imageSizes = [2]struct{ resident, seed uint64 }{{modelResident, modelSeed}, {smallResident, smallSeed}}

	// modelVPNs are the pages operations address: nine the first image
	// backs (seven in the window, the last two at its edge, and two past
	// it) and three it does not. Few pages keep a sequence's writes
	// meeting the pages earlier ones faulted.
	modelVPNs = [...]uint64{
		0, 1, 2, 3, 4, mem.WindowPages - 2, mem.WindowPages - 1, mem.WindowPages, mem.WindowPages + 1,
		modelResident, modelResident + 1, modelResident + 2,
	}
)

// world is one host and its VMs, indexed the same way in every world.
type world struct {
	host  *vmm.VMHost
	vms   []*vmm.VM
	eager bool
}

func newWorld(share, eager bool) *world {
	cfg := vmm.DefaultHostConfig("model")
	cfg.ShareContent = share
	h := vmm.NewHost(sim.NewKernel(1), cfg)
	for i, name := range imageNames {
		h.RegisterImage(name, modelPages, imageSizes[i].resident, 4, imageSizes[i].seed)
	}
	return &world{host: h, eager: eager}
}

// imageFrames is what the images hold once every VM is gone: their
// described pages.
const imageFrames = modelResident + smallResident

func (w *world) clone(kind int) {
	vm, err := w.host.FlashClone(imageNames[kind], netsim.Addr(len(w.vms)+1), nil)
	if err != nil {
		panic(err)
	}
	w.vms = append(w.vms, vm)
}

func (w *world) write(vm int, vpn uint64, off int, b []byte) bool {
	faulted := w.vms[vm].Mem.Write(vpn, off, b)
	if w.eager {
		w.vms[vm].Mem.Materialize(vpn)
	}
	return faulted
}

// checkpointRestore saves vm through the wire format and restores it as
// a new VM.
func (w *world) checkpointRestore(vm int) error {
	var buf bytes.Buffer
	if _, err := vmm.TakeCheckpoint(w.vms[vm]).WriteTo(&buf); err != nil {
		return err
	}
	ck, err := vmm.ReadCheckpoint(&buf)
	if err != nil {
		return err
	}
	restored, err := w.host.Restore(ck, nil)
	if err != nil {
		return err
	}
	w.vms = append(w.vms, restored)
	return nil
}

func (w *world) destroy(vm int) {
	w.host.Destroy(w.vms[vm].ID)
	w.vms = append(w.vms[:vm], w.vms[vm+1:]...)
}

// model is the oracle: what each VM wrote, page by page, over its
// image's content.
type model struct {
	images [2]map[uint64][]byte // by kind, the content of each page in modelVPNs
	vms    []modelVM
}

type modelVM struct {
	kind  int
	pages map[uint64]*[mem.PageSize]byte
}

func newModel() *model {
	// Each image's content, read from a store nothing else touches.
	m := &model{images: [2]map[uint64][]byte{{}, {}}}
	for i, size := range imageSizes {
		witness := mem.BuildImage(mem.NewStore(), modelPages, size.resident, size.seed).NewClone()
		for _, vpn := range modelVPNs {
			m.images[i][vpn] = witness.Read(vpn, 0, mem.PageSize)
		}
	}
	return m
}

func (m *model) page(vm int, vpn uint64) []byte {
	if p, ok := m.vms[vm].pages[vpn]; ok {
		return p[:]
	}
	return m.images[m.vms[vm].kind][vpn]
}

func (m *model) write(vm int, vpn uint64, off int, b []byte) {
	p, ok := m.vms[vm].pages[vpn]
	if !ok {
		p = new([mem.PageSize]byte)
		copy(p[:], m.page(vm, vpn))
		m.vms[vm].pages[vpn] = p
	}
	copy(p[off:], b)
}

func (m *model) copyVM(vm int) {
	c := modelVM{kind: m.vms[vm].kind, pages: make(map[uint64]*[mem.PageSize]byte, len(m.vms[vm].pages))}
	for vpn, p := range m.vms[vm].pages {
		cp := *p
		c.pages[vpn] = &cp
	}
	m.vms = append(m.vms, c)
}

// writeLens are the lengths a generated write picks from: nothing, one
// byte, the guest's 8-byte touch, the edges of the record forms, of the
// inline record and of the cap (a record is its bytes plus a header),
// and whole pages. 14 and 15 bytes are a 16- and a 17-byte record; 15
// and 16 are the last short and the first long record; 8 and 9 bytes
// are the longest write that sits inline as a page's first record and
// the shortest that starts its overflow buffer instead.
var writeLens = []int{
	0, 1, 8,
	mem.DeltaShortMax - 1, mem.DeltaShortMax,
	mem.DeltaShortMax + 1, mem.DeltaInline + 1,
	100,
	mem.DeltaCap - mem.DeltaHdr, mem.DeltaCap - mem.DeltaHdr + 1,
	1500, mem.PageSize,
}

// runOps decodes ops as an operation sequence and applies it to the
// shipped world, the eager world and the model, checking after every
// step. It reports how many write steps found a lazy frame, and returns
// the shipped world's store, so callers can tell the interesting paths
// ran.
func runOps(t *testing.T, ops []byte) (lazyHits int, lazyStore *mem.Store) {
	t.Helper()
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}

	share := next()%2 == 1
	lazy, eager := newWorld(share, false), newWorld(share, true)
	both := []*world{lazy, eager}
	m := newModel()

	for step := 0; len(ops) > 0; step++ {
		op, pick := next(), next()
		desc := "clone"
		switch n := len(lazy.vms); {
		case n == 0 || (op%16 == 0 && n < modelMaxVMs):
			kind := pick % 2
			desc = "clone of " + imageNames[kind]
			for _, w := range both {
				w.clone(kind)
			}
			m.vms = append(m.vms, modelVM{kind: kind, pages: map[uint64]*[mem.PageSize]byte{}})

		case op%16 <= 9: // write
			vm, vpn := pick%n, modelVPNs[next()%len(modelVPNs)]
			length := writeLens[next()%len(writeLens)]
			off := 0
			switch room := mem.PageSize - length; next() % 3 {
			case 0:
				off = room // off+len == PageSize
			case 1:
				off = (next()<<8 | next()) % (room + 1)
			}
			b := make([]byte, length)
			fill := next()
			for i := range b {
				b[i] = byte(fill * (i%7 + 1)) // fill 0 writes zeroes: the zero-frame path
			}
			desc = fmt.Sprintf("write vm%d page %d [%d,%d) fill %d", vm, vpn, off, off+length, fill)
			if lazy.vms[vm].Mem.IsDelta(vpn) {
				lazyHits++
			}
			if fl, fe := lazy.write(vm, vpn, off, b), eager.write(vm, vpn, off, b); fl != fe {
				t.Fatalf("step %d %s: fault reported %v, eager run %v", step, desc, fl, fe)
			}
			m.write(vm, vpn, off, b)

		case op%16 <= 11: // read
			vm, vpn := pick%n, modelVPNs[next()%len(modelVPNs)]
			off := (next()<<8 | next()) % mem.PageSize
			length := next() % (mem.PageSize - off + 1)
			desc = fmt.Sprintf("read vm%d page %d [%d,%d)", vm, vpn, off, off+length)
			got := lazy.vms[vm].Mem.Read(vpn, off, length)
			eager.vms[vm].Mem.Read(vpn, off, length)
			if !bytes.Equal(got, m.page(vm, vpn)[off:off+length]) {
				t.Fatalf("step %d %s: read differs from the model", step, desc)
			}

		// Under ShareContent too: a pass keeps the first of two identical
		// frames it meets, and whether the survivor is the one registered
		// for inline dedup decides later dedup hits — so this holds only
		// because a pass walks VMs by ID and pages in fault order.
		case op%16 == 12:
			desc = "share pass"
			rl, re := lazy.host.MemorySharePass(), eager.host.MemorySharePass()
			if rl != re {
				t.Fatalf("step %d share pass: %+v, eager run %+v", step, rl, re)
			}

		// Only the shipped world reserves, so the eager one is also the
		// unreserved twin: reserving changes nothing either reads back.
		case op%16 == 15:
			vm, room := pick%n, next()
			vpns := make([]uint64, room/len(modelVPNs))
			for j := range vpns {
				vpns[j] = modelVPNs[(room+j)%len(modelVPNs)]
			}
			desc = fmt.Sprintf("reserve vm%d for pages %v", vm, vpns)
			lazy.vms[vm].Mem.Reserve(vpns)

		case op%16 == 13 && n < modelMaxVMs:
			vm := pick % n
			desc = fmt.Sprintf("checkpoint and restore vm%d", vm)
			for _, w := range both {
				if err := w.checkpointRestore(vm); err != nil {
					t.Fatalf("step %d %s: %v", step, desc, err)
				}
			}
			m.copyVM(vm)

		default:
			vm := pick % n
			desc = fmt.Sprintf("destroy vm%d", vm)
			for _, w := range both {
				w.destroy(vm)
			}
			m.vms = append(m.vms[:vm], m.vms[vm+1:]...)
		}
		check(t, fmt.Sprintf("step %d (%s)", step, desc), lazy, eager, m)
	}

	for _, w := range both {
		w.host.DestroyAll()
		if err := w.host.CheckMemoryInvariants(); err != nil {
			t.Fatalf("after teardown: %v", err)
		}
		if got := w.host.Store().FrameCount(); got != 1+imageFrames {
			t.Fatalf("after teardown: %d frames live, want the zero frame and the images' %d", got, imageFrames)
		}
	}
	return lazyHits, lazy.host.Store()
}

// check compares the shipped world's content with the model, and its
// simulated statistics with the eager world's.
func check(t *testing.T, at string, lazy, eager *world, m *model) {
	t.Helper()
	for i, vm := range lazy.vms {
		for _, vpn := range modelVPNs {
			if !bytes.Equal(vm.Mem.PeekPage(vpn), m.page(i, vpn)) {
				t.Fatalf("%s: vm%d page %d differs from the model", at, i, vpn)
			}
		}
		ref := eager.vms[i].Mem
		if vm.Mem.PrivatePages() != ref.PrivatePages() || vm.Mem.OwnedPages() != ref.OwnedPages() ||
			vm.Mem.ResidentPages() != ref.ResidentPages() {
			t.Fatalf("%s: vm%d private/owned/resident = %d/%d/%d, eager run %d/%d/%d", at, i,
				vm.Mem.PrivatePages(), vm.Mem.OwnedPages(), vm.Mem.ResidentPages(),
				ref.PrivatePages(), ref.OwnedPages(), ref.ResidentPages())
		}
		if got, want := vm.Mem.Stats(), ref.Stats(); got != want {
			t.Fatalf("%s: vm%d space stats %+v, eager run %+v", at, i, got, want)
		}
	}
	ls, es := lazy.host.Store(), eager.host.Store()
	if ls.ModeledBytes() != es.ModeledBytes() || ls.Stats() != es.Stats() {
		t.Fatalf("%s: store %d modeled bytes %+v, eager run %d %+v", at,
			ls.ModeledBytes(), ls.Stats(), es.ModeledBytes(), es.Stats())
	}
	if lazy.host.Stats() != eager.host.Stats() || lazy.host.MemoryInUse() != eager.host.MemoryInUse() {
		t.Fatalf("%s: host stats %+v, eager run %+v", at, lazy.host.Stats(), eager.host.Stats())
	}
	for _, w := range []*world{lazy, eager} {
		if err := w.host.CheckMemoryInvariants(); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
	}
}

// TestSpaceOpsAgainstModel runs fixed random sequences through runOps —
// the fuzz target's property as an ordinary test, so `go test` holds it
// without a corpus.
func TestSpaceOpsAgainstModel(t *testing.T) {
	lazyHits := 0
	for seed := int64(0); seed < 24; seed++ {
		ops := make([]byte, 2400)
		rand.New(rand.NewSource(seed)).Read(ops)
		hits, _ := runOps(t, ops)
		lazyHits += hits
	}
	if lazyHits < 100 {
		t.Errorf("only %d writes found a lazy delta frame: the sequences no longer reach the delta paths", lazyHits)
	}
}

// TestOverflowSeedsCarveEveryClass holds FuzzSpaceOps's committed
// overflow seeds to what they were written for: every-class-two-chunks
// carves a second chunk in every overflow class, and
// one-page-every-class at least one. A change to the model's pages or
// images can leave them passing without reaching either.
func TestOverflowSeedsCarveEveryClass(t *testing.T) {
	for seed, least := range map[string]int{"every-class-two-chunks": 2, "one-page-every-class": 1} {
		for _, share := range []string{"share0", "share1"} {
			name := seed + "-" + share
			ops := corpusOps(t, filepath.Join("testdata", "fuzz", "FuzzSpaceOps", name))
			_, s := runOps(t, ops)
			_, overflow := s.ChunkBytes()
			for class, chunks := range overflow {
				if len(chunks) < least {
					t.Errorf("%s: overflow class %d carved %d chunks, want at least %d", name, class, len(chunks), least)
				}
			}
		}
	}
}

// corpusOps reads the one []byte of a fuzz corpus file.
func corpusOps(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	quoted, ok := strings.CutPrefix(value, "[]byte(")
	quoted, ok2 := strings.CutSuffix(quoted, ")")
	ops, err := strconv.Unquote(quoted)
	if header != "go test fuzz v1" || !ok || !ok2 || err != nil {
		t.Fatalf("%s: not a one-[]byte corpus file (%v)", path, err)
	}
	return []byte(ops)
}

func FuzzSpaceOps(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		ops := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	// One VM: a fault whose record is the cap to the byte, one byte more;
	// on another page three touches (one inline, two spilled); then a
	// checkpoint, a restore, and a read of the restored page.
	f.Add([]byte{0, 0, 0,
		1, 0, 3, 8, 0, 1,
		1, 0, 3, 1, 0, 2,
		1, 0, 4, 2, 2, 3,
		1, 0, 4, 2, 0, 4,
		1, 0, 4, 2, 0, 5,
		13, 0,
		10, 1, 4, 0, 0, 255})
	// One VM, each page a write at an edge of the record layout and a
	// touch after it: a 14- and a 15-byte write, the last two short
	// records; a 16-byte one, the first long record; a 9-byte one, the
	// shortest write that starts the overflow buffer. Each starts its
	// page's buffer, and the touch follows it there. Then a checkpoint, a
	// restore, and reads that promote each page.
	f.Add([]byte{0, 0, 0,
		1, 0, 1, 3, 2, 1, 1, 0, 1, 2, 1, 0, 6, 2,
		1, 0, 2, 4, 2, 3, 1, 0, 2, 2, 1, 0, 8, 4,
		1, 0, 3, 5, 2, 5, 1, 0, 3, 2, 1, 0, 10, 6,
		1, 0, 4, 6, 2, 7, 1, 0, 4, 2, 1, 0, 12, 8,
		13, 0,
		10, 0, 1, 0, 0, 255, 10, 0, 2, 0, 0, 255,
		10, 1, 3, 0, 0, 255, 10, 1, 4, 0, 0, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip("long sequences only repeat what short ones reach")
		}
		runOps(t, ops)
	})
}

// shareContentRun is an E2DeltaContent-shaped run — one host with inline
// content sharing on, clones of one image writing from a small content
// alphabet so pages keep becoming identical — with periodic share
// passes and VM churn on top, reduced to every simulated statistic and a
// hash of every VM's every page.
func shareContentRun() string {
	const vms, pages, resident = 8, 48, 32
	cfg := vmm.DefaultHostConfig("stable")
	cfg.ShareContent = true
	h := vmm.NewHost(sim.NewKernel(1), cfg)
	h.RegisterImage("img", pages, resident, 4, modelSeed)
	clone := func(i int) *vmm.VM {
		vm, err := h.FlashClone("img", netsim.Addr(i+1), nil)
		if err != nil {
			panic(err)
		}
		return vm
	}
	live := make([]*vmm.VM, vms)
	for i := range live {
		live[i] = clone(i)
	}
	rng := rand.New(rand.NewSource(11))
	var passes mem.SharePassResult
	for step := 1; step <= 2000; step++ {
		i := rng.Intn(vms)
		switch {
		case step%97 == 0:
			h.Destroy(live[i].ID)
			live[i] = clone(i)
		case step%61 == 0:
			res := h.MemorySharePass()
			passes.PagesScanned += res.PagesScanned
			passes.PagesMerged += res.PagesMerged
			passes.BytesFreed += res.BytesFreed
		default:
			content := []byte{byte(rng.Intn(3)), byte(rng.Intn(2))}
			live[i].Mem.Write(uint64(rng.Intn(pages)), 64*rng.Intn(2), content)
		}
	}
	digest := fmt.Sprintf("%+v %+v %+v %d", h.Store().Stats(), h.Stats(), passes, h.MemoryInUse())
	sum := fnv.New64a()
	for _, vm := range live {
		for vpn := uint64(0); vpn < pages; vpn++ {
			sum.Write(vm.Mem.PeekPage(vpn))
		}
		digest += fmt.Sprintf(" vm%d:%d/%d/%d", vm.ID, vm.Mem.PrivatePages(), vm.Mem.OwnedPages(), vm.Mem.ResidentPages())
	}
	return fmt.Sprintf("%s %x", digest, sum.Sum64())
}

// TestShareContentRunStable holds ROADMAP 5(d)'s mem half: a share pass
// keeps the first of two identical frames it meets, so a run's dedup
// hits — and from them every frame count — follow the order passes walk
// VMs and pages in. That order was Go's map order; CI runs this
// -count=20.
func TestShareContentRunStable(t *testing.T) {
	want := shareContentRun()
	if strings.Contains(want, "DedupHits:0 ") || strings.Contains(want, "PagesMerged:0 ") {
		t.Fatalf("the run no longer dedups inline and merges in passes: %s", want)
	}
	for i := 0; i < 2; i++ {
		if got := shareContentRun(); got != want {
			t.Fatalf("same run, different result:\n%s\n%s", want, got)
		}
	}
}
