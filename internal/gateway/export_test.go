package gateway

// spareHeld reports how many spare held packets the free list keeps.
func (g *Gateway) spareHeld() int { return len(g.freeHeld) }
