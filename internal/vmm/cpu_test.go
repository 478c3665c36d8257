package vmm

import "testing"

func TestMaxActiveVMs(t *testing.T) {
	m := DefaultCPUModel() // 4 cores, 40µs/pkt
	// At 10 pps per VM: each VM needs 400µs/s => 0.0004 cores; 4 cores
	// sustain 10000 VMs.
	if got := m.MaxActiveVMs(10); got != 10000 {
		t.Errorf("MaxActiveVMs(10) = %d", got)
	}
	if got := m.MaxActiveVMs(1000); got != 100 {
		t.Errorf("MaxActiveVMs(1000) = %d", got)
	}
	if (CPUModel{}).MaxActiveVMs(10) != 0 {
		t.Error("the zero model returned a nonzero bound")
	}
}
