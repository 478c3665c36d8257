package guest

import "potemkin/internal/netsim"

// The sends an infected guest makes on its own timers, for
// send_alloc_test.go, which drives a guest the farm built and so is an
// external test package.

func (in *Instance) EmitScan()                      { in.emitScan() }
func (in *Instance) EmitBeacon()                    { in.emitBeacon() }
func (in *Instance) FetchStage2(server netsim.Addr) { in.fetchStage2(server) }

// ForceInfect compromises the guest directly, as an exploit would.
func (in *Instance) ForceInfect(generation int) {
	if in.Infected {
		return
	}
	in.becomeInfected(generation)
}
