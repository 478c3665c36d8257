package guest

import (
	"bytes"
	"fmt"

	"potemkin/internal/netsim"
)

// Application-layer responders. A honeypot that SYN-ACKs but serves
// nothing is trivially fingerprinted; these responders parse just
// enough of each request to answer the way the advertised software
// would, so banner grabs and simple probes see a live machine.

// serveApp dispatches a data payload to the service's application
// responder. For TCP, c carries sequence state so the response rides
// the established connection; for UDP c is nil.
func (in *Instance) serveApp(c *tcpConn, pkt *netsim.Packet) {
	svc := in.Profile.service(pkt.Proto, pkt.DstPort)
	if svc == nil || svc.App == AppNone {
		return
	}
	var resp []byte
	switch svc.App {
	case AppHTTP:
		resp = httpResponse(pkt.Payload)
	case AppSMB:
		resp = smbResponse(pkt.Payload)
	case AppSMTP:
		resp = smtpResponse(pkt.Payload)
	case AppSSH:
		resp = sshResponse(pkt.Payload)
	}
	if resp == nil {
		return
	}
	in.stats.AppResponses++
	if pkt.Proto == netsim.ProtoTCP && c != nil {
		in.sendSegment(pkt.Src, pkt.DstPort, pkt.SrcPort,
			c.sndNxt, c.rcvNxt, netsim.FlagACK|netsim.FlagPSH, resp)
		c.sndNxt += uint32(len(resp))
		return
	}
	in.reply(in.datagram(pkt.Src, pkt.DstPort, pkt.SrcPort, resp))
}

// httpResponse answers an HTTP/1.x request. GET and HEAD get 200 with
// an IIS-flavoured banner; anything else recognizable gets 405; garbage
// gets 400 — exactly the graduation a scanner checks for.
func httpResponse(req []byte) []byte {
	line := req
	if i := bytes.IndexByte(line, '\r'); i >= 0 {
		line = line[:i]
	} else if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	fields := bytes.Fields(line)
	if len(fields) < 2 {
		return []byte("HTTP/1.1 400 Bad Request\r\nServer: Microsoft-IIS/5.1\r\nContent-Length: 0\r\n\r\n")
	}
	method := string(fields[0])
	switch method {
	case "GET", "HEAD":
		body := "<html><body>It works!</body></html>"
		if method == "HEAD" {
			body = ""
		}
		return []byte(fmt.Sprintf(
			"HTTP/1.1 200 OK\r\nServer: Microsoft-IIS/5.1\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n%s",
			len("<html><body>It works!</body></html>"), body))
	case "POST", "PUT", "DELETE", "OPTIONS", "TRACE":
		return []byte("HTTP/1.1 405 Method Not Allowed\r\nServer: Microsoft-IIS/5.1\r\nAllow: GET, HEAD\r\nContent-Length: 0\r\n\r\n")
	default:
		return []byte("HTTP/1.1 400 Bad Request\r\nServer: Microsoft-IIS/5.1\r\nContent-Length: 0\r\n\r\n")
	}
}

// smbMagic is the SMB protocol identifier (0xFF "SMB").
var smbMagic = []byte{0xff, 'S', 'M', 'B'}

// smbResponse answers an SMB negotiate-protocol request with a
// negotiate response (same command byte, status success), which is all
// the era's scanners checked before firing exploits.
func smbResponse(req []byte) []byte {
	// NetBIOS session header (4 bytes) may precede the SMB header.
	body := req
	if len(body) >= 4 && body[0] == 0x00 {
		body = body[4:]
	}
	if len(body) < 8 || !bytes.Equal(body[:4], smbMagic) {
		return nil // not SMB: a real server just hangs up; we stay silent
	}
	cmd := body[4]
	resp := make([]byte, 36)
	resp[0] = 0x00 // NetBIOS session message
	resp[3] = 32   // length
	copy(resp[4:], smbMagic)
	resp[8] = cmd
	// status bytes 9..12 zero = STATUS_SUCCESS; flags bit 7 = reply
	resp[13] = 0x80
	return resp
}

// smtpResponse speaks just enough SMTP for a HELO/EHLO exchange.
func smtpResponse(req []byte) []byte {
	verb := req
	if i := bytes.IndexAny(verb, " \r\n"); i >= 0 {
		verb = verb[:i]
	}
	switch string(bytes.ToUpper(verb)) {
	case "HELO", "EHLO":
		return []byte("250 mail.corp.example Hello\r\n")
	case "MAIL", "RCPT":
		return []byte("250 OK\r\n")
	case "DATA":
		return []byte("354 Start mail input\r\n")
	case "QUIT":
		return []byte("221 Bye\r\n")
	default:
		return []byte("502 Command not implemented\r\n")
	}
}

// sshResponse sends the version banner on any client bytes, as sshd
// does when the client speaks first.
func sshResponse([]byte) []byte {
	return []byte("SSH-2.0-OpenSSH_3.9p1\r\n")
}
