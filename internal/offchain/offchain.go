// Package offchain implements HyperProv's off-chain data storage: the
// blockchain holds only provenance metadata, while payloads go to a
// pluggable store. The paper mounts an SSH file system (SSHFS) from a
// separate node; here the equivalent is a remote file server reached over
// TCP through a shaped link (latency + bandwidth), plus in-memory and
// local-directory stores for tests and single-machine runs. All stores are
// content-addressed by SHA-256, which is also the checksum recorded
// on-chain.
package offchain

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/hyperprov/hyperprov/internal/durable"
)

// Errors returned by stores.
var (
	ErrNotFound         = errors.New("offchain: object not found")
	ErrChecksumMismatch = errors.New("offchain: data does not match checksum")
	ErrBadRef           = errors.New("offchain: malformed object reference")
)

// Checksum computes the canonical content checksum recorded on-chain.
func Checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// VerifyChecksum checks data against a checksum produced by Checksum; this
// is HyperProv's tamper-detection primitive for off-chain payloads.
func VerifyChecksum(data []byte, checksum string) error {
	if Checksum(data) != checksum {
		return ErrChecksumMismatch
	}
	return nil
}

// Store is the off-chain storage interface: content-addressed put/get.
type Store interface {
	// Put stores data and returns its location reference (a URI-style
	// string recorded in the on-chain provenance record).
	Put(data []byte) (ref string, err error)
	// Get retrieves the data for a reference.
	Get(ref string) ([]byte, error)
	// Close releases resources.
	Close() error
}

// MemStore is an in-memory store for tests and examples.
type MemStore struct {
	mu   sync.RWMutex
	data map[string][]byte
}

var _ Store = (*MemStore)(nil)

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{data: make(map[string][]byte)}
}

// Put stores data under its content hash.
func (m *MemStore) Put(data []byte) (string, error) {
	cp := make([]byte, len(data))
	copy(cp, data)
	key := Checksum(data)
	m.mu.Lock()
	m.data[key] = cp
	m.mu.Unlock()
	return "mem://" + key, nil
}

// Get retrieves by reference and verifies content integrity.
func (m *MemStore) Get(ref string) ([]byte, error) {
	key, ok := strings.CutPrefix(ref, "mem://")
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrBadRef, ref)
	}
	m.mu.RLock()
	data, found := m.data[key]
	m.mu.RUnlock()
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, ref)
	}
	out := make([]byte, len(data))
	copy(out, data)
	if err := VerifyChecksum(out, key); err != nil {
		return nil, err
	}
	return out, nil
}

// Corrupt flips a byte of the stored object — test hook for the paper's
// tamper-detection scenario (checksum mismatch on retrieval).
func (m *MemStore) Corrupt(ref string) error {
	key, ok := strings.CutPrefix(ref, "mem://")
	if !ok {
		return fmt.Errorf("%w: %q", ErrBadRef, ref)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	data, found := m.data[key]
	if !found {
		return fmt.Errorf("%w: %q", ErrNotFound, ref)
	}
	if len(data) > 0 {
		data[0] ^= 0xFF
	}
	return nil
}

// Len returns the number of stored objects.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data)
}

// Close is a no-op.
func (m *MemStore) Close() error { return nil }

// DirStore stores objects as files under a directory — the shape of the
// paper's SSHFS mount seen from the client (each data item is a file).
type DirStore struct {
	root string
}

var _ Store = (*DirStore)(nil)

// putTmpPattern names in-flight Put temp files; they are invisible to Get
// (objects are addressed by their hex hash) and swept on open.
const putTmpPattern = ".put-*.tmp"

// NewDirStore creates (if needed) and uses dir as the object root. Temp
// files left behind by a Put cut short by a crash are swept: they were
// never renamed into place, so no reference can point at them.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("offchain: create root: %w", err)
	}
	if stale, err := filepath.Glob(filepath.Join(dir, putTmpPattern)); err == nil {
		for _, path := range stale {
			os.Remove(path)
		}
	}
	return &DirStore{root: dir}, nil
}

func (d *DirStore) path(key string) string {
	// Keys are "sha256:<hex>"; use the hex part as the filename.
	name := strings.TrimPrefix(key, "sha256:")
	return filepath.Join(d.root, name)
}

// Put writes data to a content-addressed file. The write is atomic with
// the same discipline as the recovery checkpoints (temp file + fsync +
// rename + directory fsync): the content hash is the key clients record
// on-chain, so a crash mid-store must never leave a truncated blob behind
// a valid hash — either the complete object is durably in place or
// nothing is.
func (d *DirStore) Put(data []byte) (string, error) {
	key := Checksum(data)
	if err := durable.WriteFile(d.root, putTmpPattern, d.path(key), data); err != nil {
		return "", fmt.Errorf("offchain: store object: %w", err)
	}
	return "file://" + key, nil
}

// Get reads and verifies a content-addressed file.
func (d *DirStore) Get(ref string) ([]byte, error) {
	key, ok := strings.CutPrefix(ref, "file://")
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrBadRef, ref)
	}
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, ref)
		}
		return nil, fmt.Errorf("offchain: read object: %w", err)
	}
	if err := VerifyChecksum(data, key); err != nil {
		return nil, err
	}
	return data, nil
}

// Close is a no-op.
func (d *DirStore) Close() error { return nil }
