package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"insitu/internal/wire"
)

// Outside-in wire accounting. Every connection of the wire-fleet
// workload is wrapped in a countingConn, which copies the bytes each
// Read and Write moved into a per-direction stream and parses frames
// out of that copy with the wire package's reader. The program's own
// sockets are untouched: the copy costs one memcpy per call.

// wireSnap is a tally of frames and bytes per message type for one
// direction.
type wireSnap struct {
	Raw       int64 // bytes moved, framed or not
	Frames    [256]int64
	Bytes     [256]int64
	Dups      int64 // frames identical to an earlier frame on the same stream
	ParseErrs int64
}

// wireCounts is the live wireSnap of one direction, fed by every
// connection that moves bytes that way.
type wireCounts struct {
	mu sync.Mutex
	n  wireSnap
}

func (c *wireCounts) snap() wireSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// add returns s plus o when sign is 1 and s minus o when it is -1.
func (s wireSnap) add(o wireSnap, sign int64) wireSnap {
	s.Raw += sign * o.Raw
	s.Dups += sign * o.Dups
	s.ParseErrs += sign * o.ParseErrs
	for i := range s.Frames {
		s.Frames[i] += sign * o.Frames[i]
		s.Bytes[i] += sign * o.Bytes[i]
	}
	return s
}

// frameKey identifies a frame's content: its type, length and the CRC
// the sender computed over version, type and payload. A second frame
// with the same key on one stream is a retransmission.
type frameKey struct {
	t   wire.MsgType
	n   int
	crc uint32
}

// frameStream reassembles one direction of one connection.
type frameStream struct {
	mu     sync.Mutex
	counts *wireCounts
	buf    []byte
	seen   map[frameKey]bool
	broken bool // framing lost; stop parsing this stream
}

func newFrameStream(c *wireCounts) *frameStream {
	return &frameStream{counts: c, seen: make(map[frameKey]bool)}
}

// feed appends bytes copied from the connection and counts every frame
// they complete.
func (s *frameStream) feed(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts.mu.Lock()
	s.counts.n.Raw += int64(len(p))
	s.counts.mu.Unlock()
	if s.broken {
		return
	}
	s.buf = append(s.buf, p...)
	for len(s.buf) >= wire.HeaderLen {
		// The documented header keeps the payload length at offset 8.
		// It only tells when a whole frame has arrived; ReadRawFrame
		// parses and validates the frame.
		total := wire.HeaderLen + int(binary.LittleEndian.Uint32(s.buf[8:12])) + wire.TrailerLen
		if total > wire.HeaderLen+wire.MaxPayload+wire.TrailerLen {
			s.fail()
			return
		}
		if len(s.buf) < total {
			return
		}
		frame, err := wire.ReadRawFrame(bytes.NewReader(s.buf[:total]))
		if err != nil || len(frame) != total {
			s.fail()
			return
		}
		s.count(frame)
		s.buf = append(s.buf[:0], s.buf[total:]...)
	}
}

func (s *frameStream) fail() {
	s.broken = true
	s.buf = nil
	s.counts.mu.Lock()
	s.counts.n.ParseErrs++
	s.counts.mu.Unlock()
}

func (s *frameStream) count(frame []byte) {
	t := wire.MsgType(frame[5])
	key := frameKey{t: t, n: len(frame), crc: binary.LittleEndian.Uint32(frame[len(frame)-wire.TrailerLen:])}
	// Heartbeats repeat their payload by design; they are not resends.
	dup := t != wire.MsgHeartbeat && s.seen[key]
	s.seen[key] = true
	s.counts.mu.Lock()
	s.counts.n.Frames[t]++
	s.counts.n.Bytes[t] += int64(len(frame))
	if dup {
		s.counts.n.Dups++
	}
	s.counts.mu.Unlock()
}

// countingConn copies what passes through a connection into two frame
// streams: in for bytes read, out for bytes written.
type countingConn struct {
	net.Conn
	in, out *frameStream
}

func newCountingConn(c net.Conn, in, out *wireCounts) *countingConn {
	return &countingConn{Conn: c, in: newFrameStream(in), out: newFrameStream(out)}
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.feed(p[:n])
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.out.feed(p[:n])
	}
	return n, err
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	in, out *wireCounts
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newCountingConn(c, l.in, l.out), nil
}

// wireLink holds the four tallies of one wire fleet: what the cloud read
// (up) and wrote (down), and the same seen from the node agents.
type wireLink struct {
	cloudIn, cloudOut wireCounts
	nodeIn, nodeOut   wireCounts
}

// upTypes and downTypes are the message types a round moves in each
// direction; anything else lands in "other".
var (
	upTypes   = []wire.MsgType{wire.MsgUpload, wire.MsgDeployResult, wire.MsgStateBlob}
	downTypes = []wire.MsgType{wire.MsgCapture, wire.MsgDeploy, wire.MsgStateSave}
)

// typeTally splits a snapshot into the listed types plus "other".
func typeTally(s wireSnap, types []wire.MsgType) (names []string, frames, nbytes []int64) {
	listed := make(map[wire.MsgType]bool)
	for _, t := range types {
		listed[t] = true
		names = append(names, t.String())
		frames = append(frames, s.Frames[t])
		nbytes = append(nbytes, s.Bytes[t])
	}
	var of, ob int64
	for t := range s.Frames {
		if !listed[wire.MsgType(t)] {
			of += s.Frames[t]
			ob += s.Bytes[t]
		}
	}
	return append(names, "other"), append(frames, of), append(nbytes, ob)
}

func (s wireSnap) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d B", s.Raw)
	for t, n := range s.Frames {
		if n > 0 {
			fmt.Fprintf(&b, " %s=%d/%dB", wire.MsgType(t), n, s.Bytes[t])
		}
	}
	if s.Dups > 0 {
		fmt.Fprintf(&b, " dups=%d", s.Dups)
	}
	if s.ParseErrs > 0 {
		fmt.Fprintf(&b, " parse_errors=%d", s.ParseErrs)
	}
	return b.String()
}
