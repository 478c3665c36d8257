package pace

// Sent returns how many events the governor has paced.
func (g *Governor) Sent() uint64 { return g.n }
