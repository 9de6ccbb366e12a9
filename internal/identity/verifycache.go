package identity

import (
	"crypto/sha256"
	"encoding/binary"
)

// DefaultVerifyCacheCap is the entry bound used when a VerifyCache is built
// with a non-positive capacity. At 32 key bytes plus list overhead per entry
// the default costs about 2 MiB per process — small next to the ECDSA
// verifications it saves.
const DefaultVerifyCacheCap = 16384

// VerifyCache is a bounded LRU of signature verifications that already
// succeeded. Fabric-style pipelines verify the same (message, signature,
// certificate) triple repeatedly — the committing peer re-checks what the
// gateway already checked, and gossip redelivery re-checks whole blocks — so
// remembering successful verifications converts steady-state re-validation
// into a hash lookup.
//
// Only successes are cached. A cached entry proves the exact triple verified
// once, which is as good as verifying it again: ECDSA verification is
// deterministic in (key, digest, signature). Failures are never cached, so
// an attacker cannot poison the cache; at worst a miss costs one real
// verification, exactly the pre-cache behaviour.
//
// The zero value is not usable; build with NewVerifyCache. All methods are
// safe for concurrent use.
type VerifyCache struct {
	lru *lru[[sha256.Size]byte, struct{}]
}

// VerifyCacheStats is a snapshot of cache effectiveness counters.
type VerifyCacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// NewVerifyCache builds a cache bounded to capacity entries (the default
// when capacity is not positive).
func NewVerifyCache(capacity int) *VerifyCache {
	if capacity <= 0 {
		capacity = DefaultVerifyCacheCap
	}
	return &VerifyCache{lru: newLRU[[sha256.Size]byte, struct{}](capacity)}
}

// verifyKey binds certificate, message, and signature into one cache key.
// Each field is length-prefixed before hashing so no two distinct triples
// can collide by sliding bytes across field boundaries.
func verifyKey(certDER, msg, sig []byte) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	for _, field := range [][]byte{certDER, msg, sig} {
		binary.BigEndian.PutUint64(n[:], uint64(len(field)))
		h.Write(n[:])
		h.Write(field)
	}
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// Stats returns a snapshot of the hit/miss counters and current size.
func (c *VerifyCache) Stats() VerifyCacheStats { return c.lru.stats() }

// VerifyCached checks sig over msg like Verify, consulting the cache first.
// On a hit it returns immediately — skipping both the ECDSA verification
// and onMiss. On a miss it invokes onMiss (if non-nil) before verifying;
// callers use the hook to charge modeled verification hardware only for
// work that actually happens. A nil cache degrades to plain Verify with the
// onMiss charge, so call sites need no branching.
func (id *Identity) VerifyCached(cache *VerifyCache, msg, sig []byte, onMiss func()) error {
	if cache == nil {
		if onMiss != nil {
			onMiss()
		}
		return id.Verify(msg, sig)
	}
	k := verifyKey(id.certDER, msg, sig)
	if _, ok := cache.lru.get(k); ok {
		return nil
	}
	if onMiss != nil {
		onMiss()
	}
	if err := id.Verify(msg, sig); err != nil {
		return err
	}
	cache.lru.put(k, struct{}{})
	return nil
}
