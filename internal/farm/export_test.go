package farm

import (
	"fmt"

	"potemkin/internal/guest"
	"potemkin/internal/netsim"
)

// CheckInvariants verifies memory refcount consistency on every server.
func (f *Farm) CheckInvariants() error {
	for _, h := range f.hosts {
		if err := h.CheckMemoryInvariants(); err != nil {
			return fmt.Errorf("%s: %w", h.Cfg.Name, err)
		}
	}
	return nil
}

// Instance returns the live guest bound to addr, or nil. Like VMAt's and
// EachInstance's, the handle is good until the VM is reclaimed: the
// farm, the VMM and the guest layer all reuse a reclaimed VM's structs
// for a later clone.
func (f *Farm) Instance(addr netsim.Addr) *guest.Instance {
	if fv, ok := f.byAddr[addr]; ok {
		return fv.Guest
	}
	return nil
}

// UpServers counts servers currently in service.
func (f *Farm) UpServers() int {
	n := 0
	for _, h := range f.hosts {
		if !h.Down() {
			n++
		}
	}
	return n
}
