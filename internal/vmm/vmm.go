// Package vmm is the simulated hypervisor substrate: physical hosts with
// bounded machine memory, VM lifecycle management, reference images, and
// the paper's two headline mechanisms — flash cloning (sub-second VM
// instantiation from a snapshot) and delta virtualization (copy-on-write
// memory sharing between clones, built on internal/mem).
//
// Time inside the VMM is modeled: control-plane operations advance the
// simulation clock according to a LatencyModel. Memory behaviour is
// real: clones share actual frames and faults actually copy pages.
package vmm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"potemkin/internal/mem"
	"potemkin/internal/metrics"
	"potemkin/internal/netsim"
	"potemkin/internal/sim"
	"potemkin/internal/trace"
)

// VMID names a VM within one Host. IDs are never reused.
type VMID uint64

// State is a VM lifecycle state.
type State int

// VM lifecycle states.
const (
	StateCloning State = iota // flash clone in progress
	StateBooting              // full boot in progress
	StateRunning
	StateDead
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateCloning:
		return "cloning"
	case StateBooting:
		return "booting"
	case StateRunning:
		return "running"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Image is a cloneable reference snapshot: memory image + the
// synthetic-content parameters needed to build full-copy baselines.
type Image struct {
	Name string
	Mem  *mem.Image

	// Synthetic-content parameters (page counts and seed) so the
	// full-boot baseline can reconstruct private content.
	NumPages      uint64
	ResidentPages uint64
	Seed          uint64
	// synthetic marks images whose content is reproducible from Seed
	// (RegisterImage); only those support the FullBoot baseline.
	synthetic bool
}

// VM is one virtual machine on a Host. A *VM is valid until the VM is
// destroyed: the host keeps the struct for a later clone, so a handle
// held past Destroy reads StateDead only until the next clone or boot
// takes it over.
type VM struct {
	ID    VMID
	Image *Image
	Mem   *mem.AddressSpace
	IP    netsim.Addr
	State State

	CreatedAt sim.Time
	ReadyAt   sim.Time // when the clone/boot completed

	// Tag is free-form owner state (the farm stores its binding here).
	Tag any

	host *VMHost
	// span covers the in-flight clone/boot; finished when the VM comes
	// up or is destroyed mid-flight. Nil when tracing is off.
	span *trace.Span

	// The clone/boot completion event: comeUp is vm.up bound once for
	// the struct's lifetime, ready is what it calls, and rising is set
	// while the event is in the kernel's queue. A VM destroyed
	// mid-flight stays off the host's free list until that event has
	// fired (as a no-op), so a recycled struct never has one of a
	// previous tenant's events still addressed to it.
	comeUp sim.Event
	ready  func(*VM)
	rising bool
}

// WriteMemory performs a guest memory write, charging the host's CoW
// fault cost when the write faults. It returns whether a fault occurred.
func (vm *VM) WriteMemory(vpn uint64, off int, b []byte) bool {
	if vm.State == StateDead {
		panic("vmm: write to dead VM")
	}
	faulted := vm.Mem.Write(vpn, off, b)
	if faulted {
		vm.host.stats.CowFaults++
	}
	return faulted
}

// HostConfig sizes a simulated physical server. Every host charges
// PerVMOverheadBytes per VM and the DefaultLatencies model.
type HostConfig struct {
	Name        string
	MemoryBytes uint64 // machine memory capacity

	// ShareContent enables content-based page sharing in the frame store
	// (delta virtualization always shares image pages; this additionally
	// coalesces identical private pages).
	ShareContent bool
}

// PerVMOverheadBytes models fixed per-VM hypervisor state (shadow page
// tables, descriptor, device state) counted against a host's capacity:
// Xen-era overhead.
const PerVMOverheadBytes = 1 << 20

// hostLatency is the control-plane cost model every host charges.
var hostLatency = DefaultLatencies()

// DefaultHostConfig matches the experiments' standard server: 16 GiB of
// RAM.
func DefaultHostConfig(name string) HostConfig {
	return HostConfig{
		Name:        name,
		MemoryBytes: 16 << 30,
	}
}

// HostStats counts host-level activity, the only place it is counted; a
// field is published as the series its metric tag names.
type HostStats struct {
	Clones         uint64 `metric:"vmm_clones_total"`
	FullBoots      uint64 `metric:"vmm_full_boots_total"`
	Destroys       uint64 `metric:"vmm_destroys_total"`
	CloneRejects   uint64 `metric:"vmm_clone_rejects_total"` // admission failures
	CloneFaults    uint64 `metric:"vmm_clone_faults_total"`  // injected transient clone failures
	CowFaults      uint64 `metric:"vmm_cow_faults_total"`
	Crashes        uint64 `metric:"vmm_crashes_total"` // host failures (fault injection)
	Recoveries     uint64 `metric:"vmm_recoveries_total"`
	CrashKilledVMs uint64 `metric:"vmm_crash_killed_vms_total"` // VMs lost to host crashes
	Checkpoints    uint64 `metric:"vmm_checkpoints_total"`      // delta checkpoints taken (TakeCheckpoint)
	PeakVMs        int    `metric:"vmm_peak_vms"`
	PeakMemory     uint64 `metric:"vmm_peak_memory_bytes"`
}

// Add accumulates src into s, field by field.
func (s *HostStats) Add(src *HostStats) {
	s.Clones += src.Clones
	s.FullBoots += src.FullBoots
	s.Destroys += src.Destroys
	s.CloneRejects += src.CloneRejects
	s.CloneFaults += src.CloneFaults
	s.CowFaults += src.CowFaults
	s.Crashes += src.Crashes
	s.Recoveries += src.Recoveries
	s.CrashKilledVMs += src.CrashKilledVMs
	s.Checkpoints += src.Checkpoints
	s.PeakVMs += src.PeakVMs
	s.PeakMemory += src.PeakMemory
}

// Admission errors.
var (
	ErrNoMemory = errors.New("vmm: host memory exhausted")
	ErrNoImage  = errors.New("vmm: unknown image")
)

// VMHost is a simulated physical server running VMs over one shared
// frame store.
type VMHost struct {
	Cfg HostConfig
	K   *sim.Kernel

	store  *mem.Store
	images map[string]*Image
	vms    map[VMID]*VM
	// vmFree are destroyed VMs' structs, waiting to be the next clone.
	vmFree []*VM
	nextID VMID
	rng    *sim.RNG

	stats HostStats
	// tr, when non-nil, records clone/boot spans and lifecycle events
	// under the binding trace registered for the VM's address.
	tr *trace.Tracer

	// Failure model (see failure.go).
	down       bool
	cloneFault func() error
	cloneSlow  float64

	// Per-step clone latency distributions (E1).
	StepLatency [NumCloneSteps]metrics.Histogram
	// End-to-end clone latency distribution, in milliseconds: what
	// vmm_clone_ms publishes (see core.StatsView).
	CloneLatency metrics.Histogram
}

// NewHost creates a host on kernel k.
func NewHost(k *sim.Kernel, cfg HostConfig) *VMHost {
	if cfg.MemoryBytes == 0 {
		panic("vmm: host with no memory")
	}
	store := mem.NewStore()
	store.ShareContent = cfg.ShareContent
	return &VMHost{
		Cfg:    cfg,
		K:      k,
		store:  store,
		images: make(map[string]*Image),
		vms:    make(map[VMID]*VM),
		nextID: 1,
		rng:    k.Stream("vmm/" + cfg.Name),
	}
}

// Store exposes the host's frame store (tests and experiments read
// accounting off it).
func (h *VMHost) Store() *mem.Store { return h.store }

// SetTracer wires span tracing for clone/boot operations and VM
// lifecycle events. A nil tracer (the default) disables tracing.
func (h *VMHost) SetTracer(t *trace.Tracer) { h.tr = t }

// Stats returns a copy of the host counters.
func (h *VMHost) Stats() HostStats { return h.stats }

// NumVMs returns the number of live (cloning/booting/running) VMs.
func (h *VMHost) NumVMs() int { return len(h.vms) }

// MemoryInUse returns modeled machine-memory consumption: shared frames
// plus fixed per-VM overhead.
func (h *VMHost) MemoryInUse() uint64 {
	return h.store.ModeledBytes() + uint64(len(h.vms))*PerVMOverheadBytes
}

// MemoryFree returns remaining capacity (0 when overcommitted).
func (h *VMHost) MemoryFree() uint64 {
	used := h.MemoryInUse()
	if used >= h.Cfg.MemoryBytes {
		return 0
	}
	return h.Cfg.MemoryBytes - used
}

// RegisterImage synthesizes and registers a reference image. numPages is
// the guest-physical size; residentPages the portion the booted guest
// actually occupies. diskBlocks is ignored: VMs have no disk, and the
// parameter is held only for bench/, which passes it. Returns the image
// for direct use.
func (h *VMHost) RegisterImage(name string, numPages, residentPages, diskBlocks, seed uint64) *Image {
	img := &Image{
		Name:          name,
		Mem:           mem.BuildImage(h.store, numPages, residentPages, seed),
		NumPages:      numPages,
		ResidentPages: residentPages,
		Seed:          seed,
		synthetic:     true,
	}
	h.images[name] = img
	return img
}

// admit checks capacity for one more VM with the given incremental
// memory need.
func (h *VMHost) admit(extraBytes uint64) error {
	if h.MemoryInUse()+extraBytes+PerVMOverheadBytes > h.Cfg.MemoryBytes {
		return ErrNoMemory
	}
	return nil
}

// FlashClone starts a flash clone of image for IP ip, invoking ready
// when the VM is runnable. The returned VM is in StateCloning until
// then. Admission is checked synchronously; the error return covers
// capacity and unknown images.
//
// Memory cost at clone time is page-table-only (no frame copies): this
// is delta virtualization. The modeled latency is the sum of the
// per-step costs, recorded into the E1 histograms.
func (h *VMHost) FlashClone(imageName string, ip netsim.Addr, ready func(*VM)) (*VM, error) {
	img, ok := h.images[imageName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoImage, imageName)
	}
	if err := h.checkFault(); err != nil {
		return nil, err
	}
	if err := h.admit(0); err != nil {
		h.stats.CloneRejects++
		return nil, err
	}
	vm := h.newVM(img, ip, StateCloning)
	vm.Mem = img.Mem.NewClone()
	if h.tr != nil {
		vm.span = h.tr.StartChild(h.K.Now(), h.tr.Current(uint64(ip)), "clone",
			trace.Attr{K: "server", V: h.Cfg.Name}, trace.Attr{K: "image", V: img.Name})
	}

	var total time.Duration
	for step := CloneStep(0); step < NumCloneSteps; step++ {
		d := h.slowed(hostLatency.cloneStepCost(step, img.Mem.ResidentPages(), h.rng))
		h.StepLatency[step].Observe(float64(d) / float64(time.Millisecond))
		total += d
	}
	h.CloneLatency.Observe(float64(total) / float64(time.Millisecond))
	h.stats.Clones++

	vm.rise(total, ready)
	return vm, nil
}

// FullBoot starts a from-scratch boot of image for IP ip — the
// no-flash-cloning baseline. Every resident page is private, so the
// admission check requires the image's full footprint.
func (h *VMHost) FullBoot(imageName string, ip netsim.Addr, ready func(*VM)) (*VM, error) {
	img, ok := h.images[imageName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoImage, imageName)
	}
	if !img.synthetic {
		return nil, fmt.Errorf("vmm: image %q is a VM snapshot; full boot requires a synthetic image", imageName)
	}
	if err := h.checkFault(); err != nil {
		return nil, err
	}
	footprint := img.ResidentPages * mem.PageSize
	if err := h.admit(footprint); err != nil {
		h.stats.CloneRejects++
		return nil, err
	}
	vm := h.newVM(img, ip, StateBooting)
	vm.Mem = mem.NewPatternSpace(h.store, img.NumPages, img.ResidentPages, img.Seed)
	h.stats.FullBoots++
	if h.tr != nil {
		vm.span = h.tr.StartChild(h.K.Now(), h.tr.Current(uint64(ip)), "boot",
			trace.Attr{K: "server", V: h.Cfg.Name}, trace.Attr{K: "image", V: img.Name})
	}

	vm.rise(hostLatency.jittered(hostLatency.FullBoot, h.rng), ready)
	return vm, nil
}

// rise schedules the VM's clone or boot to complete after d.
func (vm *VM) rise(d time.Duration, ready func(*VM)) {
	vm.ready, vm.rising = ready, true
	vm.host.K.After(d, vm.comeUp)
}

// up is the completion event: the VM becomes runnable, unless it was
// destroyed mid-flight, in which case its struct is now free for reuse.
func (vm *VM) up(now sim.Time) {
	vm.rising = false
	if vm.State == StateDead {
		vm.host.vmFree = append(vm.host.vmFree, vm)
		return
	}
	vm.State = StateRunning
	vm.ReadyAt = now
	vm.span.Finish(now)
	if ready := vm.ready; ready != nil {
		vm.ready = nil
		ready(vm)
	}
}

// newVM registers a VM of img in state st, on a recycled struct when
// the host has one.
func (h *VMHost) newVM(img *Image, ip netsim.Addr, st State) *VM {
	var vm *VM
	if n := len(h.vmFree); n > 0 {
		vm, h.vmFree[n-1] = h.vmFree[n-1], nil
		h.vmFree = h.vmFree[:n-1]
	} else {
		vm = &VM{}
		vm.comeUp = vm.up
	}
	*vm = VM{
		ID:        h.nextID,
		Image:     img,
		IP:        ip,
		State:     st,
		CreatedAt: h.K.Now(),
		host:      h,
		comeUp:    vm.comeUp,
	}
	h.nextID++
	h.vms[vm.ID] = vm
	if len(h.vms) > h.stats.PeakVMs {
		h.stats.PeakVMs = len(h.vms)
	}
	if m := h.MemoryInUse(); m > h.stats.PeakMemory {
		h.stats.PeakMemory = m
	}
	return vm
}

// Destroy tears a VM down immediately, releasing its memory. The modeled
// teardown latency is charged to the host but completion is not
// observable (Potemkin reclaims asynchronously).
func (h *VMHost) Destroy(id VMID) {
	vm, ok := h.vms[id]
	if !ok {
		return
	}
	if vm.span != nil && !vm.span.Done() {
		// Torn down mid-clone/boot: close the span so the trace shows
		// the aborted instantiation rather than leaking an open span.
		vm.span.Event(h.K.Now(), "destroyed-in-flight", vm.State.String())
		vm.span.Finish(h.K.Now())
	}
	vm.State = StateDead
	vm.Mem.Release()
	vm.ready = nil
	delete(h.vms, id)
	if !vm.rising {
		h.vmFree = append(h.vmFree, vm)
	}
	h.stats.Destroys++
}

// DestroyAll tears down every VM (end-of-experiment cleanup and host
// crashes), in VMID order so teardown — and any trace output it emits —
// is a pure function of the seed.
func (h *VMHost) DestroyAll() {
	for _, vm := range h.sortedVMs() {
		h.Destroy(vm.ID)
	}
}

// sortedVMs returns the live VMs in VMID order: what walks them all
// must not inherit the map's order.
func (h *VMHost) sortedVMs() []*VM {
	vms := make([]*VM, 0, len(h.vms))
	for _, vm := range h.vms {
		vms = append(vms, vm)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i].ID < vms[j].ID })
	return vms
}

// spaces returns the live VMs' address spaces in VMID order.
func (h *VMHost) spaces() []*mem.AddressSpace {
	vms := h.sortedVMs()
	spaces := make([]*mem.AddressSpace, len(vms))
	for i, vm := range vms {
		spaces[i] = vm.Mem
	}
	return spaces
}

// SnapshotVM freezes a running VM's current state as a new reference
// image named name — the paper's actual image-preparation flow: boot a
// reference VM once, install and configure the personality, then
// snapshot it and flash-clone the whole farm from the result. The
// source VM keeps running (its memory pages become copy-on-write).
//
// The source must be a scratch (full-boot) VM: snapshotting a clone
// would chain memory images, which the substrate does not support.
func (h *VMHost) SnapshotVM(id VMID, name string) (*Image, error) {
	vm, ok := h.vms[id]
	if !ok {
		return nil, fmt.Errorf("vmm: no VM %d", id)
	}
	if vm.State != StateRunning {
		return nil, fmt.Errorf("vmm: VM %d is %v, not running", id, vm.State)
	}
	if vm.Mem.Base() != nil {
		return nil, fmt.Errorf("vmm: VM %d is a clone; snapshot a full-boot VM", id)
	}
	img := &Image{
		Name:          name,
		Mem:           mem.Snapshot(vm.Mem),
		NumPages:      vm.Mem.NumPages(),
		ResidentPages: uint64(vm.Mem.ResidentPages()),
		Seed:          vm.Image.Seed,
	}
	h.images[name] = img
	return img, nil
}

// MemorySharePass runs one KSM-style content-sharing scan over all live
// VMs' owned pages (see mem.SharePass). The pass keeps the first of two
// identical pages it meets, so it walks the VMs in VMID order.
func (h *VMHost) MemorySharePass() mem.SharePassResult {
	return mem.SharePass(h.store, h.spaces())
}

// StartSharePasses runs MemorySharePass every interval until the
// returned ticker is stopped.
func (h *VMHost) StartSharePasses(interval time.Duration) *sim.Ticker {
	return h.K.Every(interval, func(sim.Time) { h.MemorySharePass() })
}

// CheckMemoryInvariants verifies frame refcount consistency across all
// live VMs and images on the host. Tests call this after churn.
func (h *VMHost) CheckMemoryInvariants() error {
	var images []*mem.Image
	for _, img := range h.images {
		images = append(images, img.Mem)
	}
	return h.store.CheckRefs(mem.ExternalRefs(h.spaces(), images))
}
