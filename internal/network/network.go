// Package network provides the wire primitives shared by the repo's TCP
// services: length-prefixed JSON message framing and a link shaper that
// imposes configurable latency and bandwidth on a connection. The shaper is
// how the off-chain store reproduces the SSHFS-over-LAN transfer costs that
// dominate HyperProv's large-payload measurements.
package network

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/codec"
)

// MaxFrame bounds a single framed message (64 MiB covers the largest
// payloads in the paper's sweeps with room to spare).
const MaxFrame = 64 << 20

// traceFlag marks a frame carrying a trace-ID extension. MaxFrame is far
// below 2^31, so the length word's top bit is free: a flagged frame is
// [4-byte len|traceFlag][1-byte id length][id bytes][body], where len counts
// the id-length byte, the id, and the body. Readers that predate the flag
// reject such frames (length check fails) rather than misparse them.
const traceFlag = 1 << 31

// channelFlag marks a frame carrying a channel-ID extension — the
// multi-channel analog of traceFlag, using the next free bit of the length
// word (MaxFrame is far below 2^30 too). A frame with both flags lays the
// extensions out in flag-bit order, trace first:
// [4-byte len|flags][1-byte trace len][trace][1-byte channel len][channel][body].
// Channel-less frames never set the bit, so a single-channel deployment's
// wire bytes are identical to before the extension existed.
const channelFlag = 1 << 30

// maxTraceID bounds the trace-ID extension (one length byte).
const maxTraceID = 255

// maxChannelID bounds the channel-ID extension (one length byte).
const maxChannelID = 255

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("network: frame exceeds maximum size")

// WriteTracedFrame writes one frame, embedding traceID in the header when
// non-empty so the receiving process can join the sender's trace. An empty
// traceID produces a plain frame. Trace IDs longer than 255 bytes are
// dropped (the frame is still sent, untraced).
func WriteTracedFrame(w io.Writer, traceID string, payload []byte) error {
	return WriteFrameExt(w, traceID, "", payload)
}

// WriteFrameExt writes one length-prefixed frame carrying up to two header
// extensions: the trace ID (traceFlag) and the channel ID (channelFlag)
// routing the frame to one channel of a multi-channel host. Either may be
// empty; with both empty the frame is a plain [4-byte len][body] frame,
// which is what keeps single-channel peers wire-compatible across
// versions. Extension values longer than 255 bytes are dropped (the frame
// is still sent without that extension).
//
// Header and body go out in a single Write call: a shaped link charges the
// one-way latency exactly once per frame, and concurrent frame writers
// sharing a connection cannot interleave one frame's header with another's
// body.
func WriteFrameExt(w io.Writer, traceID, channelID string, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	if len(traceID) > maxTraceID {
		traceID = ""
	}
	if len(channelID) > maxChannelID {
		channelID = ""
	}
	var flags uint32
	ext := 0
	if traceID != "" {
		flags |= traceFlag
		ext += 1 + len(traceID)
	}
	if channelID != "" {
		flags |= channelFlag
		ext += 1 + len(channelID)
	}
	// Assemble the frame in a pooled buffer: the steady-state gossip and
	// transport write path sends thousands of frames per second, and a
	// per-frame allocation sized header+payload is pure GC pressure. The
	// single Write call below is still load-bearing (see above).
	fb := codec.GetBuffer()
	fb.Grow(4 + ext + len(payload))
	buf := fb.B[:4+ext+len(payload)]
	binary.BigEndian.PutUint32(buf, uint32(ext+len(payload))|flags)
	at := 4
	if traceID != "" {
		buf[at] = byte(len(traceID))
		copy(buf[at+1:], traceID)
		at += 1 + len(traceID)
	}
	if channelID != "" {
		buf[at] = byte(len(channelID))
		copy(buf[at+1:], channelID)
		at += 1 + len(channelID)
	}
	copy(buf[at:], payload)
	_, err := w.Write(buf)
	fb.Release()
	if err != nil {
		return fmt.Errorf("network: write frame: %w", err)
	}
	return nil
}

// ReadTracedFrame reads one frame and returns its payload plus the trace ID
// carried in the header (empty for plain frames). Any channel extension is
// discarded.
func ReadTracedFrame(r io.Reader) ([]byte, string, error) {
	payload, traceID, _, err := ReadFrameExt(r)
	return payload, traceID, err
}

// ReadFrameExt reads one frame and returns its payload plus the trace and
// channel IDs carried in the header (each empty when its extension is
// absent).
func ReadFrameExt(r io.Reader) ([]byte, string, string, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, "", "", err // io.EOF passes through for clean shutdown
	}
	word := binary.BigEndian.Uint32(hdr[:])
	traced := word&traceFlag != 0
	channeled := word&channelFlag != 0
	n := word &^ (traceFlag | channelFlag)
	if n > MaxFrame+2*(1+maxTraceID) {
		return nil, "", "", fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			// The header promised n body bytes and none arrived: that is a
			// truncated frame, not the clean between-frames shutdown io.EOF
			// signals to callers.
			err = io.ErrUnexpectedEOF
		}
		return nil, "", "", fmt.Errorf("network: read frame body: %w", err)
	}
	var traceID, channelID string
	if traced {
		traceID, payload = cutExt(payload)
		if payload == nil {
			return nil, "", "", fmt.Errorf("network: read frame body: %w", io.ErrUnexpectedEOF)
		}
	}
	if channeled {
		channelID, payload = cutExt(payload)
		if payload == nil {
			return nil, "", "", fmt.Errorf("network: read frame body: %w", io.ErrUnexpectedEOF)
		}
	}
	return payload, traceID, channelID, nil
}

// cutExt splits one length-prefixed extension off the front of buf,
// returning (value, rest). A truncated extension returns rest == nil.
func cutExt(buf []byte) (string, []byte) {
	if len(buf) < 1 {
		return "", nil
	}
	n := int(buf[0])
	if len(buf) < 1+n {
		return "", nil
	}
	return string(buf[1 : 1+n]), buf[1+n:]
}

// WriteJSON frames and writes a JSON-encoded message.
func WriteJSON(w io.Writer, v any) error {
	return WriteTracedJSON(w, "", v)
}

// WriteTracedJSON frames and writes a JSON-encoded message carrying traceID
// in the frame header.
func WriteTracedJSON(w io.Writer, traceID string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("network: marshal: %w", err)
	}
	return WriteTracedFrame(w, traceID, b)
}

// WriteExtJSON frames and writes a JSON-encoded message carrying traceID and
// channelID in the frame header (either may be empty).
func WriteExtJSON(w io.Writer, traceID, channelID string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("network: marshal: %w", err)
	}
	return WriteFrameExt(w, traceID, channelID, b)
}

// ReadJSON reads one frame and decodes it into v.
func ReadJSON(r io.Reader, v any) error {
	_, err := ReadTracedJSON(r, v)
	return err
}

// ReadTracedJSON reads one frame, decodes it into v, and returns the frame's
// trace ID (empty for plain frames).
func ReadTracedJSON(r io.Reader, v any) (string, error) {
	b, id, err := ReadTracedFrame(r)
	if err != nil {
		return "", err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return "", fmt.Errorf("network: unmarshal: %w", err)
	}
	return id, nil
}

// ReadExtJSON reads one frame, decodes it into v, and returns the frame's
// trace and channel IDs (each empty when its extension is absent).
func ReadExtJSON(r io.Reader, v any) (string, string, error) {
	b, traceID, channelID, err := ReadFrameExt(r)
	if err != nil {
		return "", "", err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return "", "", fmt.Errorf("network: unmarshal: %w", err)
	}
	return traceID, channelID, nil
}

// ErrCode is a machine-readable error classification carried in response
// frames. The off-chain store protocol and the peer transport share this
// vocabulary so clients map failures to sentinel errors structurally
// instead of matching on message substrings.
type ErrCode string

// Wire error codes.
const (
	// CodeNone marks a successful response.
	CodeNone ErrCode = ""
	// CodeNotFound: the requested object or key does not exist.
	CodeNotFound ErrCode = "not_found"
	// CodeChecksumMismatch: stored data failed its integrity check.
	CodeChecksumMismatch ErrCode = "checksum_mismatch"
	// CodeBadRequest: the request was malformed or referenced an unknown op.
	CodeBadRequest ErrCode = "bad_request"
	// CodeUnknownChaincode: the peer has no such chaincode installed.
	CodeUnknownChaincode ErrCode = "unknown_chaincode"
	// CodeSimulationFailed: chaincode simulation returned a non-OK status.
	CodeSimulationFailed ErrCode = "simulation_failed"
	// CodeUnknownChannel: the host does not serve the requested channel.
	CodeUnknownChannel ErrCode = "unknown_channel"
	// CodeInternal: any other server-side failure.
	CodeInternal ErrCode = "internal"
)

// LinkShape describes a simulated link.
type LinkShape struct {
	// Latency is added once per transfer direction (one-way delay).
	Latency time.Duration
	// Mbps caps throughput; 0 means unshaped.
	Mbps float64
	// Scale compresses the imposed delays (matching device.Clock scaling);
	// 0 means 1.0.
	Scale float64
}

// Delay returns the shaped transfer time for n bytes (latency + serialization).
func (s LinkShape) Delay(n int) time.Duration {
	d := s.Latency
	if s.Mbps > 0 && n > 0 {
		d += time.Duration(float64(n) * 8 / (s.Mbps * 1e6) * float64(time.Second))
	}
	scale := s.Scale
	if scale <= 0 {
		scale = 1
	}
	return time.Duration(float64(d) * scale)
}

// ShapedConn wraps a bidirectional stream, imposing the link shape on
// writes. Reads are left unshaped (the remote side shapes its own writes).
type ShapedConn struct {
	rw    io.ReadWriter
	shape LinkShape
	mu    sync.Mutex
}

// NewShapedConn wraps rw with the given link shape.
func NewShapedConn(rw io.ReadWriter, shape LinkShape) *ShapedConn {
	return &ShapedConn{rw: rw, shape: shape}
}

// Read reads from the underlying stream.
func (c *ShapedConn) Read(p []byte) (int, error) { return c.rw.Read(p) }

// Write sleeps for the shaped delay of len(p) bytes, then writes.
func (c *ShapedConn) Write(p []byte) (int, error) {
	if d := c.shape.Delay(len(p)); d > 0 {
		time.Sleep(d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rw.Write(p)
}
