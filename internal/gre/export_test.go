package gre

import "potemkin/internal/netsim"

// Unwrap decapsulates an outer GRE packet produced by Wrap (by any
// tunnel), returning the GRE header and inner packet.
func Unwrap(outer *netsim.Packet) (Header, *netsim.Packet, error) {
	if outer.Proto != netsim.ProtoGRE {
		return Header{}, nil, ErrBadProto
	}
	h, innerBytes, err := Decap(outer.Payload)
	if err != nil {
		return Header{}, nil, err
	}
	inner, err := netsim.Unmarshal(innerBytes)
	if err != nil {
		return Header{}, nil, err
	}
	return h, inner, nil
}
