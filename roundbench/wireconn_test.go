package main

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"

	"insitu/internal/wire"
)

func mustFrame(t *testing.T, typ wire.MsgType, payload []byte) []byte {
	t.Helper()
	f, err := wire.EncodeFrame(wire.ProtoMax, typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// testFrames returns frames of several types and sizes, one of them
// empty and one larger than a typical read buffer, plus their totals.
func testFrames(t *testing.T) (frames [][]byte, count, size map[wire.MsgType]int64) {
	big := bytes.Repeat([]byte{7}, 200_000)
	frames = [][]byte{
		mustFrame(t, wire.MsgCapture, wire.Capture{Round: 1, N: 8}.Encode()),
		mustFrame(t, wire.MsgDeploy, wire.Deploy{Round: 1, Bundle: big}.Encode()),
		mustFrame(t, wire.MsgStateSave, wire.EncodeStateSave(3)),
		mustFrame(t, wire.MsgBye, nil),
		mustFrame(t, wire.MsgCapture, wire.Capture{Round: 2, N: 8}.Encode()),
	}
	count, size = map[wire.MsgType]int64{}, map[wire.MsgType]int64{}
	for _, f := range frames {
		count[wire.MsgType(f[5])]++
		size[wire.MsgType(f[5])] += int64(len(f))
	}
	return frames, count, size
}

func checkCounts(t *testing.T, got wireSnap, count, size map[wire.MsgType]int64, raw int64) {
	t.Helper()
	if got.ParseErrs != 0 || got.Dups != 0 || got.Raw != raw {
		t.Fatalf("raw %d (want %d), parse errors %d, dups %d", got.Raw, raw, got.ParseErrs, got.Dups)
	}
	for typ := range got.Frames {
		mt := wire.MsgType(typ)
		if got.Frames[typ] != count[mt] || got.Bytes[typ] != size[mt] {
			t.Fatalf("%v: %d frames / %d B, want %d / %d", mt, got.Frames[typ], got.Bytes[typ], count[mt], size[mt])
		}
	}
}

func TestFrameStreamCountsAnyChunking(t *testing.T) {
	frames, count, size := testFrames(t)
	stream := bytes.Join(frames, nil)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var c wireCounts
		s := newFrameStream(&c)
		for rest := stream; len(rest) > 0; {
			n := 1 + rng.Intn(1+rng.Intn(70_000))
			if trial == 0 {
				n = 1 // byte by byte
			}
			n = min(n, len(rest))
			s.feed(rest[:n])
			rest = rest[n:]
		}
		checkCounts(t, c.snap(), count, size, int64(len(stream)))
	}
}

func TestFrameStreamFlagsResendsButNotHeartbeats(t *testing.T) {
	var c wireCounts
	s := newFrameStream(&c)
	capture := mustFrame(t, wire.MsgCapture, wire.Capture{Round: 4, N: 8}.Encode())
	beat := mustFrame(t, wire.MsgHeartbeat, wire.EncodeHeartbeat(9))
	for _, f := range [][]byte{capture, beat, beat, capture, beat} {
		s.feed(f)
	}
	got := c.snap()
	if got.Dups != 1 || got.Frames[wire.MsgCapture] != 2 || got.Frames[wire.MsgHeartbeat] != 3 {
		t.Fatalf("dups %d, captures %d, heartbeats %d; want 1, 2, 3", got.Dups, got.Frames[wire.MsgCapture], got.Frames[wire.MsgHeartbeat])
	}
}

func TestFrameStreamStopsOnGarbage(t *testing.T) {
	var c wireCounts
	s := newFrameStream(&c)
	s.feed([]byte("definitely not a wire frame header"))
	s.feed(mustFrame(t, wire.MsgBye, nil))
	got := c.snap()
	if got.ParseErrs != 1 || got.Frames[wire.MsgBye] != 0 {
		t.Fatalf("parse errors %d, bye frames %d; want 1, 0", got.ParseErrs, got.Frames[wire.MsgBye])
	}
}

// TestCountingConnBothEnds sends frames through a counting connection
// and checks that the writer's and the reader's tallies both match what
// wire.EncodeFrame produced.
func TestCountingConnBothEnds(t *testing.T) {
	frames, count, size := testFrames(t)
	a, b := net.Pipe()
	var aIn, aOut, bIn, bOut wireCounts
	ca, cb := newCountingConn(a, &aIn, &aOut), newCountingConn(b, &bIn, &bOut)
	var wg sync.WaitGroup
	wg.Add(1)
	var readErr error
	go func() {
		defer wg.Done()
		for range frames {
			if _, _, _, err := wire.ReadFrame(cb); err != nil {
				readErr = err
				return
			}
		}
	}()
	var raw int64
	for _, f := range frames {
		if err := wire.WriteFrame(ca, f[4], wire.MsgType(f[5]), f[wire.HeaderLen:len(f)-wire.TrailerLen]); err != nil {
			t.Fatal(err)
		}
		raw += int64(len(f))
	}
	wg.Wait()
	ca.Close()
	if _, err := io.ReadAll(cb); err != nil && err != io.EOF && err != io.ErrClosedPipe {
		t.Fatal(err)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	checkCounts(t, aOut.snap(), count, size, raw)
	checkCounts(t, bIn.snap(), count, size, raw)
	if aIn.snap().Raw != 0 || bOut.snap().Raw != 0 {
		t.Fatal("bytes counted in the direction nothing moved")
	}
}

func TestTypeTallySplitsOther(t *testing.T) {
	var s wireSnap
	s.Frames[wire.MsgUpload], s.Bytes[wire.MsgUpload] = 2, 100
	s.Frames[wire.MsgHeartbeat], s.Bytes[wire.MsgHeartbeat] = 3, 60
	s.Frames[wire.MsgHello], s.Bytes[wire.MsgHello] = 1, 30
	names, frames, nbytes := typeTally(s, upTypes)
	last := len(names) - 1
	if names[0] != "upload" || frames[0] != 2 || nbytes[0] != 100 {
		t.Fatalf("upload: %s %d %d", names[0], frames[0], nbytes[0])
	}
	if names[last] != "other" || frames[last] != 4 || nbytes[last] != 90 {
		t.Fatalf("other: %s %d %d", names[last], frames[last], nbytes[last])
	}
}
