package network

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{7}, 100000)}
	for _, p := range payloads {
		if err := WriteFrameExt(&buf, "", "", p); err != nil {
			t.Fatalf("WriteFrameExt: %v", err)
		}
	}
	for _, want := range payloads {
		got, _, _, err := ReadFrameExt(&buf)
		if err != nil {
			t.Fatalf("ReadFrameExt: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %d bytes, want %d", len(got), len(want))
		}
	}
	if _, _, _, err := ReadFrameExt(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("read past end = %v, want EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "", "", make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized write err = %v", err)
	}
	// A malicious header announcing an oversized frame must be rejected.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, _, err := ReadFrameExt(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized read err = %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	type msg struct {
		A string `json:"a"`
		B int    `json:"b"`
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, msg{A: "x", B: 7}); err != nil {
		t.Fatal(err)
	}
	var got msg
	if err := ReadJSON(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.A != "x" || got.B != 7 {
		t.Errorf("got %+v", got)
	}
	// Bad JSON in a valid frame.
	if err := WriteFrameExt(&buf, "", "", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if err := ReadJSON(&buf, &got); err == nil {
		t.Error("ReadJSON accepted bad JSON")
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "", "", []byte("complete")); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	if _, _, _, err := ReadFrameExt(trunc); err == nil {
		t.Error("truncated frame read succeeded")
	}
}

func TestShapedConnWrites(t *testing.T) {
	var buf bytes.Buffer
	c := NewShapedConn(&buf, LinkShape{Latency: 10 * time.Millisecond, Scale: 0.5})
	start := time.Now()
	if _, err := c.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("shaped write returned in %v, want >= ~5ms", elapsed)
	}
	if buf.String() != "data" {
		t.Errorf("written = %q", buf.String())
	}
	// Reads pass through unshaped.
	rbuf := bytes.NewBufferString("incoming")
	rc := NewShapedConn(rbuf, LinkShape{Latency: time.Hour})
	p := make([]byte, 8)
	start = time.Now()
	if _, err := rc.Read(p); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Error("read was shaped")
	}
}

// Property: arbitrary byte sequences frame-round-trip.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrameExt(&buf, "", "", payload); err != nil {
			return false
		}
		got, _, _, err := ReadFrameExt(&buf)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// failAfterWriter fails every write after the first n bytes were accepted.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		accepted := w.n - w.written
		if accepted < 0 {
			accepted = 0
		}
		w.written += accepted
		return accepted, errors.New("wire broke")
	}
	w.written += len(p)
	return len(p), nil
}

func TestReadFrameShortHeader(t *testing.T) {
	// A clean EOF before any header byte passes through as io.EOF (normal
	// connection shutdown between frames)...
	if _, _, _, err := ReadFrameExt(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream err = %v, want io.EOF", err)
	}
	// ...but a header cut off mid-way is an unexpected EOF, not a clean
	// shutdown.
	for _, n := range []int{1, 2, 3} {
		hdr := []byte{0, 0, 0, 9}
		if _, _, _, err := ReadFrameExt(bytes.NewReader(hdr[:n])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d-byte header err = %v, want ErrUnexpectedEOF", n, err)
		}
	}
}

func TestReadFrameShortBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "", "", []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every possible body truncation point must error, never hang or
	// return a partial payload.
	for cut := 4; cut < len(full); cut++ {
		_, _, _, err := ReadFrameExt(bytes.NewReader(full[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("body cut at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameExt(&buf, "", "", nil); err != nil {
		t.Fatal(err)
	}
	payload, _, _, err := ReadFrameExt(&buf)
	if err != nil || len(payload) != 0 {
		t.Errorf("empty frame = %v, %v", payload, err)
	}
}

func TestWriteFrameErrorPropagation(t *testing.T) {
	// Failure while writing the header.
	if err := WriteFrameExt(&failAfterWriter{n: 2}, "", "", []byte("payload")); err == nil {
		t.Error("header write failure not reported")
	}
	// Failure while writing the body.
	if err := WriteFrameExt(&failAfterWriter{n: 6}, "", "", []byte("payload")); err == nil {
		t.Error("body write failure not reported")
	}
}

// countingWriter records how many Write calls it receives.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func (w *countingWriter) Read(p []byte) (int, error) { return w.buf.Read(p) }

// TestWriteFrameSingleWrite pins the framing fix: header and body must go
// out in ONE Write call. A shaper charges latency per Write, so two calls
// per frame would double every framed message's one-way delay (and let
// concurrent writers interleave header and body bytes).
func TestWriteFrameSingleWrite(t *testing.T) {
	w := &countingWriter{}
	if err := WriteFrameExt(w, "", "", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("WriteFrameExt issued %d writes, want 1", w.writes)
	}
	got, _, _, err := ReadFrameExt(&w.buf)
	if err != nil || string(got) != "payload" {
		t.Fatalf("roundtrip = %q, %v", got, err)
	}
}

// TestShapedFramePaysOneLatency asserts the latency accounting end to end:
// one framed message through a ShapedConn is charged exactly one one-way
// delay, not one per Write call.
func TestShapedFramePaysOneLatency(t *testing.T) {
	const latency = 100 * time.Millisecond
	w := &countingWriter{}
	c := NewShapedConn(w, LinkShape{Latency: latency})
	start := time.Now()
	if err := WriteFrameExt(c, "", "", []byte("one charge")); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if w.writes != 1 {
		t.Fatalf("frame crossed the shaper in %d writes, want 1", w.writes)
	}
	if elapsed < latency {
		t.Errorf("frame paid %v, want >= one latency (%v)", elapsed, latency)
	}
	if elapsed >= 2*latency {
		t.Errorf("frame paid %v, want < two latencies (%v)", elapsed, 2*latency)
	}
}

func TestReadFrameAtExactLimit(t *testing.T) {
	var buf bytes.Buffer
	payload := make([]byte, 1<<10)
	if err := WriteFrameExt(&buf, "", "", payload); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := ReadFrameExt(&buf)
	if err != nil || len(got) != len(payload) {
		t.Fatalf("roundtrip: %d bytes, err %v", len(got), err)
	}
}

// TestWriteFrameExtZeroAlloc pins the pooled write path: once the buffer
// pool is warm, framing a payload — with or without header extensions —
// allocates nothing. This is the steady-state guarantee the gossip and
// transport hot paths rely on.
func TestWriteFrameExtZeroAlloc(t *testing.T) {
	payload := make([]byte, 4096)
	// Warm the pool so the measurement sees steady state, not first use.
	if err := WriteFrameExt(io.Discard, "trace-1", "ch", payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteFrameExt(io.Discard, "trace-1", "ch", payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteFrameExt allocates %.1f objects per frame, want 0", allocs)
	}
}

// BenchmarkWriteFrameExt is the -benchmem pin for the pooled frame writer:
// steady-state frame writes on the commit/gossip hot path must report
// 0 allocs/op (`go test -bench WriteFrameExt -benchmem ./internal/network/`).
func BenchmarkWriteFrameExt(b *testing.B) {
	payload := make([]byte, 4096)
	if err := WriteFrameExt(io.Discard, "trace-bench", "ch", payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrameExt(io.Discard, "trace-bench", "ch", payload); err != nil {
			b.Fatal(err)
		}
	}
}
