package dns

// RCodeOK is the response code of an answered query.
const RCodeOK = 0

// RCode extracts the response code.
func (m *Message) RCode() int { return int(m.Flags & 0xf) }
