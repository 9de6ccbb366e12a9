package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func fillFileStore(t *testing.T, s *FileStore, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		b, err := NewBlock(uint64(i), s.LastHash(), []Envelope{mkEnv(fmt.Sprintf("tx-%d", i), "set")})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(b); err != nil {
			t.Fatalf("Append block %d: %v", i, err)
		}
	}
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Height() != 5 {
		t.Fatalf("reloaded height = %d, want 5", s2.Height())
	}
	if err := s2.VerifyChain(); err != nil {
		t.Errorf("reloaded chain: %v", err)
	}
	env, code, err := s2.GetTx("tx-3")
	if err != nil || code != TxValid || env.TxID != "tx-3" {
		t.Errorf("GetTx after reload = %v %v %v", env, code, err)
	}
	// Appending continues the chain.
	fillFileStore(t, s2, 5, 2)
	if s2.Height() != 7 {
		t.Errorf("height after continued appends = %d", s2.Height())
	}
}

// v2Records splits a v2 block file into its raw records (magic, length
// and body each).
func v2Records(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	var recs [][]byte
	for len(raw) > 0 {
		_, total, status := parseV2Record(raw)
		if status != recComplete {
			t.Fatalf("record %d: status %d", len(recs), status)
		}
		recs = append(recs, raw[:total])
		raw = raw[total:]
	}
	return recs
}

// TestFileStoreRejectsTamperedFile rewrites block 1 on disk as a well-formed
// record — valid CRC, valid encoding, header untouched — whose envelope
// carries a different TxID. Only the data-hash check can catch it, and the
// open must fail with ErrCorruptFile rather than serve the forged block.
func TestFileStoreRejectsTamperedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := v2Records(t, raw)
	if len(recs) != 3 {
		t.Fatalf("file holds %d records, want 3", len(recs))
	}
	blob, _, _ := parseV2Record(recs[1])
	b, err := UnmarshalBlock(blob)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh envelope carries no cached encoding, so the re-encode
	// reflects the forged TxID.
	b.Envelopes[0] = mkEnv("tx-X", "set")
	forged := MarshalBlock(b)
	if _, err := UnmarshalBlock(forged); err != nil {
		t.Fatalf("forged record is not well-formed: %v", err)
	}
	rec := binary.AppendUvarint(append([]byte(nil), v2Magic...), uint64(len(forged)))
	tampered := bytes.Join([][]byte{recs[0], rec, forged, recs[2]}, nil)
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); !errors.Is(err, ErrCorruptFile) {
		t.Fatalf("tampered block file: err = %v, want ErrCorruptFile", err)
	}
}

func TestFileStoreMidFileGarbageIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Overwrite the second record's magic so it no longer starts a record.
	// A crash cannot do this — only the final record can be torn — so the
	// open must refuse rather than silently truncate away the valid blocks
	// that follow the damage.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := v2Records(t, raw)
	copy(recs[1], "#garbage#")
	if err := os.WriteFile(path, bytes.Join(recs, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenFileStore(path)
	if !errors.Is(err, ErrCorruptFile) {
		t.Fatalf("open over mid-file garbage: err = %v, want ErrCorruptFile", err)
	}
}

func TestFileStoreBlankLineIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A stray newline after the last record is neither a torn record (not
	// a prefix of the record magic) nor a zero-filled tail, so a crash
	// cannot explain it and it must read as corruption.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = OpenFileStore(path)
	if !errors.Is(err, ErrCorruptFile) {
		t.Fatalf("open over stray newline: err = %v, want ErrCorruptFile", err)
	}
}

func TestFileStoreSyncEachAppendSurvivesNoFlushClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	s, err := OpenFileStoreWithPolicy(path, SyncEachAppend)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, 3)
	// Simulate a process kill: no flush, no fsync. With SyncEachAppend
	// every block already reached the file, so nothing is lost.
	if err := s.CloseNoFlush(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Height() != 3 {
		t.Errorf("height after kill with SyncEachAppend = %d, want 3", s2.Height())
	}
}

func TestFileStoreSequenceStillEnforced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillFileStore(t, s, 0, 2)
	bad, err := NewBlock(7, s.LastHash(), []Envelope{mkEnv("bad", "set")})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(bad); err == nil {
		t.Error("out-of-sequence append accepted")
	}
	if err := s.Sync(); err != nil {
		t.Errorf("Sync: %v", err)
	}
}
