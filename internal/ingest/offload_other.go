//go:build !linux

package ingest

import "net"

// UDP segmentation offload is Linux-only: elsewhere every train crosses
// the socket one datagram per segment and every read is one datagram.
const (
	canSegment        = false
	segmentControlLen = 0
)

func segmentControl(buf *[segmentControlLen]byte, size int) []byte { return nil }

func groSegmentSize(oob []byte) int { return 0 }

func setGRO(c *net.UDPConn, on bool) {}

func segmentRefused(err error) bool { return false }
