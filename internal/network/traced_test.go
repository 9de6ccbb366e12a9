package network

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func TestTracedFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTracedFrame(&buf, "tx-abc123", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	payload, id, err := ReadTracedFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != "tx-abc123" || string(payload) != "payload" {
		t.Errorf("got id=%q payload=%q", id, payload)
	}
}

func TestTracedFrameEmptyIDIsPlainFrame(t *testing.T) {
	var a bytes.Buffer
	if err := WriteTracedFrame(&a, "", []byte("same")); err != nil {
		t.Fatal(err)
	}
	plain := append(binary.BigEndian.AppendUint32(nil, 4), "same"...)
	if !bytes.Equal(a.Bytes(), plain) {
		t.Error("empty-ID traced frame differs from plain frame on the wire")
	}
	_, id, err := ReadTracedFrame(&a)
	if err != nil || id != "" {
		t.Errorf("id=%q err=%v", id, err)
	}
}

func TestTracedFrameOversizedIDDropped(t *testing.T) {
	var buf bytes.Buffer
	long := strings.Repeat("x", 300)
	if err := WriteTracedFrame(&buf, long, []byte("body")); err != nil {
		t.Fatal(err)
	}
	payload, id, err := ReadTracedFrame(&buf)
	if err != nil || id != "" || string(payload) != "body" {
		t.Errorf("payload=%q id=%q err=%v", payload, id, err)
	}
}

// A traced frame must still cross the shaper in a single Write so it pays
// exactly one one-way latency.
func TestTracedFrameSingleWrite(t *testing.T) {
	w := &countingWriter{}
	if err := WriteTracedFrame(w, "txid", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("traced frame issued %d writes, want 1", w.writes)
	}
}

func TestTracedJSONRoundTrip(t *testing.T) {
	type msg struct {
		A string `json:"a"`
	}
	var buf bytes.Buffer
	if err := WriteTracedJSON(&buf, "tx-77", msg{A: "v"}); err != nil {
		t.Fatal(err)
	}
	var got msg
	id, err := ReadTracedJSON(&buf, &got)
	if err != nil || id != "tx-77" || got.A != "v" {
		t.Errorf("got=%+v id=%q err=%v", got, id, err)
	}
}

// Truncation inside the trace extension must error, not return garbage.
func TestTracedFrameTruncatedExtension(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTracedFrame(&buf, "abcdef", []byte("body")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Corrupt: claim a longer ID than the frame holds.
	bad := append([]byte(nil), full...)
	bad[4] = 200
	if _, _, err := ReadTracedFrame(bytes.NewReader(bad)); err == nil {
		t.Error("oversized embedded id length accepted")
	}
}
