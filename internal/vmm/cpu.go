package vmm

import "time"

// Memory bounds how many *idle* VMs a server holds; CPU bounds how many
// *active* ones — the second axis of the paper's provisioning argument,
// which E2c tabulates from this model analytically.

// CPUModel parameterizes per-host compute.
type CPUModel struct {
	// Cores is the host's parallelism.
	Cores int
	// PerPacket is guest-side service time per delivered packet.
	PerPacket time.Duration
}

// DefaultCPUModel matches the era's servers: 4 cores, ~40 µs of
// processing per honeypot packet.
func DefaultCPUModel() CPUModel {
	return CPUModel{Cores: 4, PerPacket: 40 * time.Microsecond}
}

// MaxActiveVMs is the analytic CPU bound the paper's provisioning
// argument uses: how many VMs each receiving ppsPerVM packets/second
// one host sustains.
func (m CPUModel) MaxActiveVMs(ppsPerVM float64) int {
	if m.Cores <= 0 || m.PerPacket <= 0 || ppsPerVM <= 0 {
		return 0
	}
	perVM := ppsPerVM * m.PerPacket.Seconds() // CPU-seconds per second per VM
	return int(float64(m.Cores)/perVM + 0.5)
}
