package identity

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"
)

// foreignKeyIdentity serializes a certificate for pub, issued and signed by
// the trusted ca: a well-formed, correctly chained identity whose key this
// package cannot verify with.
func foreignKeyIdentity(t *testing.T, ca *CA, cn string, pub crypto.PublicKey) []byte {
	t.Helper()
	now := time.Now()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1000),
		Subject:      pkix.Name{CommonName: cn, Organization: []string{ca.org}},
		NotBefore:    now.Add(-time.Hour),
		NotAfter:     now.Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, pub, ca.key)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(serializedIdentity{MSPID: ca.org + "MSP", CertDER: der})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestMSPRejectsNonP256Key(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	edPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p384, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for name, pub := range map[string]crypto.PublicKey{"ed25519": edPub, "p384": &p384.PublicKey} {
		t.Run(name, func(t *testing.T) {
			raw := foreignKeyIdentity(t, ca, name, pub)
			for i := 0; i < 2; i++ {
				if _, err := msp.Deserialize(raw); !errors.Is(err, ErrMalformedIdentity) {
					t.Fatalf("attempt %d: Deserialize = %v, want ErrMalformedIdentity", i, err)
				}
			}
		})
	}
	if st := msp.IdentityCacheStats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("rejected keys reached the identity cache: %+v", st)
	}
}

func TestIdentityCacheHitReturnsSameIdentity(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	sid, err := ca.Enroll("client1", RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	first, err := msp.Deserialize(sid.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	second, err := msp.Deserialize(sid.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("cache hit returned a different identity")
	}
	if st := msp.IdentityCacheStats(); st != (VerifyCacheStats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestIdentityCacheExpiredOnHit(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	sid, err := ca.Enroll("client1", RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := msp.Deserialize(sid.Serialize()); err != nil {
		t.Fatalf("Deserialize while valid: %v", err)
	}
	// Certificates are valid for 5 years; move the CA's clock past that.
	ca.now = func() time.Time { return time.Now().Add(6 * 365 * 24 * time.Hour) }
	if _, err := msp.Deserialize(sid.Serialize()); !errors.Is(err, ErrCertExpired) {
		t.Fatalf("Deserialize after expiry = %v, want ErrCertExpired", err)
	}
	if st := msp.IdentityCacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want the expiry caught on a hit", st)
	}
}

func TestIdentityCacheAddCAReplacesTrust(t *testing.T) {
	oldCA := newTestCA(t, "Org1")
	msp := NewMSP(oldCA)
	sid, err := oldCA.Enroll("client1", RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	raw := sid.Serialize()
	if _, err := msp.Deserialize(raw); err != nil {
		t.Fatalf("Deserialize under old CA: %v", err)
	}
	// Org1 now trusts a different CA: the cached identity must be
	// re-verified against it, and fail.
	msp.AddCA(newTestCA(t, "Org1"))
	for i := 0; i < 2; i++ {
		if _, err := msp.Deserialize(raw); !errors.Is(err, ErrCertNotSignedByCA) {
			t.Fatalf("attempt %d after AddCA = %v, want ErrCertNotSignedByCA", i, err)
		}
	}
	// The stale entry is found once, then dropped rather than reused.
	if st := msp.IdentityCacheStats(); st != (VerifyCacheStats{Hits: 1, Misses: 2}) {
		t.Fatalf("stats = %+v, want 1 stale hit, 2 misses, no entries", st)
	}
	// Restoring the old CA makes the identity valid again.
	msp.AddCA(oldCA)
	if _, err := msp.Deserialize(raw); err != nil {
		t.Fatalf("Deserialize after restoring old CA: %v", err)
	}
}

func TestIdentityCacheNeverCachesFailures(t *testing.T) {
	trusted := newTestCA(t, "Org1")
	msp := NewMSP(trusted)
	forger, err := newTestCA(t, "Org1").Enroll("imposter", RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	outsider, err := newTestCA(t, "Mallory").Enroll("evil", RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"forged", forger.Serialize(), ErrCertNotSignedByCA},
		{"unknown org", outsider.Serialize(), ErrUnknownOrg},
		{"not json", []byte("not json"), ErrMalformedIdentity},
		{"bad cert", []byte(`{"mspid":"x","certDer":"aGk="}`), ErrMalformedIdentity},
		{"empty", nil, ErrMalformedIdentity},
	}
	for _, tc := range cases {
		for i := 0; i < 3; i++ {
			if _, err := msp.Deserialize(tc.raw); !errors.Is(err, tc.want) {
				t.Errorf("%s attempt %d: err = %v, want %v", tc.name, i, err, tc.want)
			}
		}
	}
	want := VerifyCacheStats{Misses: uint64(3 * len(cases))}
	if st := msp.IdentityCacheStats(); st != want {
		t.Fatalf("stats = %+v, want %+v: failures must never be cached", st, want)
	}
}

func TestIdentityCacheOnlyCachesCanonicalForm(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	sid, err := ca.Enroll("client1", RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	certDER, err := json.Marshal(sid.Identity().certDER)
	if err != nil {
		t.Fatal(err)
	}
	// Variants of a public identity that anyone can build: they decode to
	// the same certificate, so they are accepted, but none may take a slot.
	variants := map[string][]byte{
		"padded":        []byte(fmt.Sprintf(`{"mspid":"Org1MSP","certDer":%s,"pad":"%0*d"}  `, certDER, 1<<16, 0)),
		"other mspid":   []byte(fmt.Sprintf(`{"mspid":"Org2MSP","certDer":%s}`, certDER)),
		"missing mspid": []byte(fmt.Sprintf(`{"certDer":%s}`, certDER)),
	}
	for name, raw := range variants {
		for i := 0; i < 2; i++ {
			id, err := msp.Deserialize(raw)
			if err != nil {
				t.Fatalf("%s attempt %d: %v", name, i, err)
			}
			if id.ID() != "client1" {
				t.Fatalf("%s: got identity %q", name, id.ID())
			}
		}
	}
	if st := msp.IdentityCacheStats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("non-canonical identities reached the cache: %+v", st)
	}
	if _, err := msp.Deserialize(sid.Serialize()); err != nil {
		t.Fatal(err)
	}
	if st := msp.IdentityCacheStats(); st.Entries != 1 {
		t.Fatalf("canonical identity not cached: %+v", st)
	}
}

func TestIdentityCacheBound(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	if msp.ids.cap != IdentityCacheCap {
		t.Fatalf("NewMSP cache cap = %d, want IdentityCacheCap %d", msp.ids.cap, IdentityCacheCap)
	}
	const capacity = 4
	msp.ids = newLRU[string, verifiedIdentity](capacity)
	raws := make([][]byte, capacity+1)
	for i := range raws {
		sid, err := ca.Enroll(fmt.Sprintf("client%d", i), RoleClient)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = sid.Serialize()
		if _, err := msp.Deserialize(raws[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := msp.IdentityCacheStats(); st.Entries != capacity {
		t.Fatalf("entries = %d, want cap %d", st.Entries, capacity)
	}
	// raws[0] was least recently used when raws[capacity] arrived: it must
	// be verified afresh, while the newest entry is still a hit.
	before := msp.IdentityCacheStats()
	if _, err := msp.Deserialize(raws[0]); err != nil {
		t.Fatalf("evicted identity re-verify: %v", err)
	}
	if _, err := msp.Deserialize(raws[capacity]); err != nil {
		t.Fatal(err)
	}
	after := msp.IdentityCacheStats()
	if after.Misses != before.Misses+1 || after.Hits != before.Hits+1 {
		t.Fatalf("stats %+v -> %+v, want the evicted identity to miss and the newest to hit", before, after)
	}
	if after.Entries != capacity {
		t.Fatalf("entries = %d after re-insert, want cap %d", after.Entries, capacity)
	}
}

func TestIdentityCacheConcurrent(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	const capacity = 4
	msp.ids = newLRU[string, verifiedIdentity](capacity)
	// One identity every goroutine shares, plus two of each goroutine's
	// own: more distinct identities than the cache holds, so hits, misses
	// and evictions interleave.
	const workers = 4
	enroll := func(name string) []byte {
		sid, err := ca.Enroll(name, RoleClient)
		if err != nil {
			t.Fatal(err)
		}
		return sid.Serialize()
	}
	shared := enroll("shared")
	own := make([][2][]byte, workers)
	for g := range own {
		own[g] = [2][]byte{enroll(fmt.Sprintf("w%d-a", g)), enroll(fmt.Sprintf("w%d-b", g))}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				raw, want := shared, "shared"
				switch i % 3 {
				case 1:
					raw, want = own[g][0], fmt.Sprintf("w%d-a", g)
				case 2:
					raw, want = own[g][1], fmt.Sprintf("w%d-b", g)
				}
				id, err := msp.Deserialize(raw)
				if err != nil {
					t.Error(err)
					return
				}
				if id.ID() != want {
					t.Errorf("Deserialize returned %q, want %q", id.ID(), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := msp.IdentityCacheStats()
	if st.Entries > capacity {
		t.Fatalf("cache exceeded capacity: %+v", st)
	}
	if st.Hits+st.Misses != workers*64 {
		t.Fatalf("stats = %+v, want %d lookups", st, workers*64)
	}
}
