package mem

// SharePass is the offline half of content-based sharing: a periodic
// scanner (KSM-style) that walks the owned pages of a set of address
// spaces and merges frames with identical content, the way the paper's
// delta virtualization proposal recovers sharing that copy-on-write
// divergence has destroyed. Inline dedup (Store.ShareContent) only
// catches identical pages at allocation time; the pass catches pages
// that *became* identical later, at the cost of a scan.
//
// Merged frames become shared: the next write through any mapping
// copy-on-write-faults as usual, so correctness does not depend on the
// pass at all — only memory footprint does.

// SharePassResult reports what a pass accomplished.
type SharePassResult struct {
	PagesScanned int
	PagesMerged  int
	BytesFreed   uint64
}

// SharePass merges identical exclusively-owned frames across spaces,
// walking the spaces in the order given and each one's pages in fault
// order; of two identical pages the one met first is kept. Frames
// already shared (refcount > 1) are left alone: they are either image
// pages or prior merge canonicals. A lazy delta is promoted to a data
// frame before it is compared, so what survives a merge is a frame any
// space can hold.
func SharePass(store *Store, spaces []*AddressSpace) SharePassResult {
	var res SharePassResult
	byHash := make(map[uint64][]FrameID)

	for _, a := range spaces {
		if a == nil || a.released {
			continue
		}
		for i := 0; i < a.n; i++ {
			e := a.at(i)
			if e.isDelta() {
				a.promote(e)
			}
			id := e.frame()
			if store.IsZeroFrame(id) {
				continue
			}
			if store.Refs(id) != 1 {
				continue // already shared
			}
			res.PagesScanned++
			content := store.View(id)
			h := contentHash(content)
			merged := false
			for _, c := range byHash[h] {
				// The candidate may have been freed if its sole owner
				// merged away; guard by liveness.
				if c == id || !store.alive(c) {
					continue
				}
				if bytesEqual(store.View(c), content) {
					store.IncRef(c)
					e.setFrame(c)
					store.DecRef(id)
					res.PagesMerged++
					res.BytesFreed += PageSize
					merged = true
					break
				}
			}
			if !merged {
				byHash[h] = append(byHash[h], id)
			}
		}
	}
	return res
}
