package ingest

import (
	"encoding/binary"
	"errors"
	"net"
	"syscall"
)

// UDP segmentation offload, the two socket options that let a train of
// equal-length datagrams cross the kernel boundary in one syscall
// (linux/udp.h; the syscall package does not define them).
const (
	udpSegment = 103 // UDP_SEGMENT: cut one send into datagrams of the given size
	udpGRO     = 104 // UDP_GRO: deliver coalesced datagrams in one read, size in a cmsg

	canSegment = true
)

// Control-message layout (struct cmsghdr): a machine-word length, then
// int32 level and type, then the data, each message aligned to a word.
const (
	cmsgHdrLen  = syscall.SizeofCmsghdr
	cmsgLenSize = cmsgHdrLen - 8 // the word: 8 bytes, or 4 on 32-bit

	// segmentControlLen holds one UDP_SEGMENT message: header + uint16,
	// padded to a word.
	segmentControlLen = cmsgHdrLen + cmsgLenSize
)

func cmsgAlign(n int) int { return (n + cmsgLenSize - 1) &^ (cmsgLenSize - 1) }

// segmentControl writes into buf the control message that asks the
// kernel to cut one send into datagrams of size bytes each.
func segmentControl(buf *[segmentControlLen]byte, size int) []byte {
	putCmsgLen(buf[:], cmsgHdrLen+2)
	binary.NativeEndian.PutUint32(buf[cmsgLenSize:], syscall.IPPROTO_UDP)
	binary.NativeEndian.PutUint32(buf[cmsgLenSize+4:], udpSegment)
	binary.NativeEndian.PutUint16(buf[cmsgHdrLen:], uint16(size))
	return buf[:]
}

func putCmsgLen(b []byte, n int) {
	if cmsgLenSize == 8 {
		binary.NativeEndian.PutUint64(b, uint64(n))
	} else {
		binary.NativeEndian.PutUint32(b, uint32(n))
	}
}

func cmsgLen(b []byte) uint64 {
	if cmsgLenSize == 8 {
		return binary.NativeEndian.Uint64(b)
	}
	return uint64(binary.NativeEndian.Uint32(b))
}

// groSegmentSize walks a read's control messages in place and returns
// the segment size a UDP_GRO message reports, or 0 when there is none
// (the read is one datagram). syscall.ParseSocketControlMessage would
// allocate its result on every read.
func groSegmentSize(oob []byte) int {
	for len(oob) >= cmsgHdrLen {
		n := cmsgLen(oob)
		if n < cmsgHdrLen || n > uint64(len(oob)) {
			return 0
		}
		level := binary.NativeEndian.Uint32(oob[cmsgLenSize:])
		typ := binary.NativeEndian.Uint32(oob[cmsgLenSize+4:])
		if level == syscall.IPPROTO_UDP && typ == udpGRO && n >= cmsgHdrLen+4 {
			// The kernel writes an int; a segment never exceeds 64 KiB.
			return int(int32(binary.NativeEndian.Uint32(oob[cmsgHdrLen:])))
		}
		oob = oob[min(cmsgAlign(int(n)), len(oob)):]
	}
	return 0
}

// setGRO switches UDP_GRO on the socket, best effort: a socket that
// does not take it returns one datagram per read, which is a train of one.
func setGRO(c *net.UDPConn, on bool) {
	rc, err := c.SyscallConn()
	if err != nil {
		return
	}
	v := 0
	if on {
		v = 1
	}
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, v)
	})
}

// segmentRefused reports whether a segmented send failed because this
// kernel, route or device will not segment. Such a send queues nothing,
// so writing the same train one datagram per segment duplicates nothing.
func segmentRefused(err error) bool {
	for _, errno := range [...]syscall.Errno{syscall.EIO, syscall.EINVAL, syscall.ENOPROTOOPT, syscall.EOPNOTSUPP, syscall.EMSGSIZE} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}
