package vmm

import (
	"time"

	"potemkin/internal/sim"
)

// LatencyModel parameterizes the modeled cost of VMM control-plane
// operations. Potemkin's prototype ran on Xen, where flash cloning was
// dominated by control-plane work (domain creation, device attach,
// network reconfiguration) rather than memory copying — delta
// virtualization makes the memory step nearly free. The defaults below
// reproduce that cost *structure*: a total flash-clone budget of roughly
// half a second, dominated by device and network setup, versus a
// tens-of-seconds full boot.
//
// These are modeled latencies (they advance the sim clock, not the wall
// clock); EXPERIMENTS.md discusses how they map onto the paper's
// reported breakdown.
type LatencyModel struct {
	// Flash-clone steps, charged in order.
	DescriptorSetup time.Duration // allocate + copy the domain descriptor
	MemMapBase      time.Duration // set up the CoW memory map
	MemMapPerPage   time.Duration // per resident page: PTE copy cost
	DeviceClone     time.Duration // virtual disk + NIC attach: charged, no disk state is kept
	NetConfig       time.Duration // bind IP, install gateway filter state
	Unpause         time.Duration // scheduler unpause

	// FullBoot is the baseline cost of booting the image from scratch.
	FullBoot time.Duration

	// CowFault is the service time charged per copy-on-write fault while
	// the VM runs.
	CowFault time.Duration

	// Destroy is the cost of tearing a VM down and reclaiming memory.
	Destroy time.Duration

	// Jitter, if nonzero, scales each charged step by a uniform factor in
	// [1-Jitter, 1+Jitter] so repeated clones produce a distribution
	// rather than a constant.
	Jitter float64
}

// DefaultLatencies returns the model used by the experiments.
func DefaultLatencies() LatencyModel {
	return LatencyModel{
		DescriptorSetup: 124 * time.Millisecond,
		MemMapBase:      2 * time.Millisecond,
		MemMapPerPage:   60 * time.Nanosecond,
		DeviceClone:     149 * time.Millisecond,
		NetConfig:       135 * time.Millisecond,
		Unpause:         6 * time.Millisecond,
		FullBoot:        24 * time.Second,
		CowFault:        25 * time.Microsecond,
		Destroy:         40 * time.Millisecond,
		Jitter:          0.08,
	}
}

// CloneStep identifies one stage of the flash-clone path, in execution
// order. The E1 experiment reports a latency row per step.
type CloneStep int

// Flash-clone stages.
const (
	StepDescriptor CloneStep = iota
	StepMemMap
	StepDeviceClone
	StepNetConfig
	StepUnpause
	NumCloneSteps
)

// String names the step as it appears in the E1 table.
func (s CloneStep) String() string {
	switch s {
	case StepDescriptor:
		return "descriptor-setup"
	case StepMemMap:
		return "memory-map-clone"
	case StepDeviceClone:
		return "device-clone"
	case StepNetConfig:
		return "network-config"
	case StepUnpause:
		return "unpause"
	default:
		return "unknown"
	}
}

// jittered scales d by the model's jitter using stream r.
func (m *LatencyModel) jittered(d time.Duration, r *sim.RNG) time.Duration {
	if m.Jitter <= 0 || d <= 0 {
		return d
	}
	// float64 rounds each product: no fused multiply-add (make vet).
	f := 1 + float64(m.Jitter*(2*float64(r.Float64())-1))
	return time.Duration(float64(d) * f)
}

// cloneStepCost returns the modeled duration of one step for an image
// with residentPages pages.
func (m *LatencyModel) cloneStepCost(step CloneStep, residentPages int, r *sim.RNG) time.Duration {
	var d time.Duration
	switch step {
	case StepDescriptor:
		d = m.DescriptorSetup
	case StepMemMap:
		d = m.MemMapBase + time.Duration(residentPages)*m.MemMapPerPage
	case StepDeviceClone:
		d = m.DeviceClone
	case StepNetConfig:
		d = m.NetConfig
	case StepUnpause:
		d = m.Unpause
	}
	return m.jittered(d, r)
}
