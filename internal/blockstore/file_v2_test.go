package blockstore

// v2 block-file coverage: crash semantics of the binary record loader
// (torn tails, zero fill, mid-file damage) and the refusal of pre-v2 JSON
// ledgers.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestFileStoreNewFilesAreV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, v2Magic) {
		t.Fatalf("v2 file does not start with record magic: %q", raw[:8])
	}
	// Reopen replays everything.
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Height() != 4 {
		t.Fatalf("reopen: height=%d, want 4", s2.Height())
	}
	env, code, err := s2.GetTx("tx-2")
	if err != nil || code != TxValid || env.TxID != "tx-2" {
		t.Fatalf("GetTx after v2 reload = %v %v %v", env, code, err)
	}
	if err := s2.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain after v2 reload: %v", err)
	}
}

func TestFileStoreV2DiscardsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record mid-body (crash during append).
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen after torn record: %v", err)
	}
	if s2.Height() != 2 {
		t.Fatalf("height after torn record = %d, want 2", s2.Height())
	}
	// Appends continue cleanly on the truncated file.
	fillFileStore(t, s2, 2, 2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Height() != 4 {
		t.Fatalf("final height = %d, want 4", s3.Height())
	}
	if err := s3.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
}

func TestFileStoreV2TornMagicAndLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn append can stop inside the magic or the length uvarint; both
	// must read as a torn tail, not corruption.
	for _, tail := range [][]byte{{'H'}, {'H', 'P'}, {'H', 'P', 'B', '2'}, {'H', 'P', 'B', '2', 0xFF}} {
		func() {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			crashed := append(append([]byte(nil), raw...), tail...)
			crashPath := filepath.Join(t.TempDir(), "crash.jsonl")
			if err := os.WriteFile(crashPath, crashed, 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := OpenFileStore(crashPath)
			if err != nil {
				t.Fatalf("tail %v: %v", tail, err)
			}
			defer s2.Close()
			if s2.Height() != 2 {
				t.Fatalf("tail %v: height = %d, want 2", tail, s2.Height())
			}
		}()
	}
}

func TestFileStoreV2ZeroFilledTailIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen over zero-filled tail: %v", err)
	}
	defer s2.Close()
	if s2.Height() != 3 {
		t.Fatalf("height = %d, want 3", s2.Height())
	}
}

func TestFileStoreV2MidFileDamageIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the file: the record is complete, so
	// the CRC failure cannot be a crash artifact.
	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)/2] ^= 0x01
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); !errors.Is(err, ErrCorruptFile) {
		t.Fatalf("mid-file flip: err = %v, want ErrCorruptFile", err)
	}
}

func TestFileStoreV2SyncEachAppendSurvivesNoFlushClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	s, err := OpenFileStoreWithPolicy(path, SyncEachAppend)
	if err != nil {
		t.Fatal(err)
	}
	fillFileStore(t, s, 0, 3)
	if err := s.CloseNoFlush(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Height() != 3 {
		t.Fatalf("height after kill = %d, want 3", s2.Height())
	}
}

func TestFileStoreUnrecognizedFormatByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.jsonl")
	if err := os.WriteFile(path, []byte("XYZZY"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); !errors.Is(err, ErrCorruptFile) {
		t.Fatalf("alien format byte: err = %v, want ErrCorruptFile", err)
	}
}

// TestFileStoreRefusesLegacyLedger opens a 3-block ledger written by the
// pre-v2 JSON-lines block store, whose hashes cover JSON encodings. The
// open must fail with ErrLegacyLedger, not ErrCorruptFile, and must leave
// the file byte-for-byte as it was: no truncation, no append.
func TestFileStoreRefusesLegacyLedger(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "legacy_ledger.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "blocks.jsonl")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStore(path)
	if !errors.Is(err, ErrLegacyLedger) || errors.Is(err, ErrCorruptFile) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("open legacy ledger: err = %v, want ErrLegacyLedger", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("refused open modified the ledger: %d bytes, want %d", len(got), len(want))
	}
}
