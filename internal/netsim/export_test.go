package netsim

// Depth returns the number of packets waiting (excluding in service).
func (s *Station) Depth() int { return s.waiting }
