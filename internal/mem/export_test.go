package mem

// Views for model_test.go, which is an external test package because it
// drives checkpoints through vmm, and vmm imports this package.

// The delta record geometry, so generated writes can straddle its edges.
const (
	DeltaHdr    = deltaHdr
	DeltaInline = deltaInline
	DeltaCap    = deltaCap
)

// PeekPage returns what Read(vpn, 0, PageSize) would, without
// materializing anything: a test that looked with Read would turn every
// lazy frame it checked into a data frame.
func (a *AddressSpace) PeekPage(vpn uint64) []byte {
	a.checkPage(vpn)
	out := make([]byte, PageSize)
	id := a.pages[vpn].Frame
	if id == 0 && a.base != nil {
		id = a.base.frame(vpn)
	}
	if id != 0 {
		a.store.render(a.store.must(id), (*[PageSize]byte)(out))
	}
	return out
}

// IsDelta reports whether vpn is owned and still a lazy delta frame.
func (a *AddressSpace) IsDelta(vpn uint64) bool {
	pte, ok := a.pages[vpn]
	return ok && a.store.must(pte.Frame).src != 0
}

// Materialize gives vpn's frame its bytes now, as every fault did before
// delta frames: a run that calls it after each write is the eager
// reference.
func (a *AddressSpace) Materialize(vpn uint64) {
	if pte, ok := a.pages[vpn]; ok {
		a.store.View(pte.Frame)
	}
}
