// Package identity implements the membership service provider (MSP)
// substrate: a certificate authority, ECDSA P-256 X.509 signing identities,
// and signature verification. It mirrors the role Fabric's MSP plays for
// HyperProv — every provenance record is bound to the X.509 certificate of
// the client that created it.
package identity

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"encoding/pem"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"
)

// Role classifies what a certificate is allowed to do inside an org.
type Role int

// Certificate roles, mirroring Fabric's MSP principal classification.
const (
	RoleClient Role = iota + 1
	RolePeer
	RoleOrderer
	RoleAdmin
)

// String returns the textual form of the role used in certificate OUs.
func (r Role) String() string {
	switch r {
	case RoleClient:
		return "client"
	case RolePeer:
		return "peer"
	case RoleOrderer:
		return "orderer"
	case RoleAdmin:
		return "admin"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Errors returned by this package.
var (
	ErrUnknownOrg         = errors.New("identity: unknown organization")
	ErrBadSignature       = errors.New("identity: signature verification failed")
	ErrCertNotSignedByCA  = errors.New("identity: certificate not signed by org CA")
	ErrCertExpired        = errors.New("identity: certificate outside validity window")
	ErrMalformedIdentity  = errors.New("identity: malformed serialized identity")
	ErrRevoked            = errors.New("identity: certificate revoked")
	ErrDuplicateEnrollKey = errors.New("identity: enrollment id already issued")
)

// CA is a self-signed certificate authority for one organization. It issues
// signing identities to clients, peers, and orderers, and verifies that
// serialized identities presented on the wire chain back to it.
type CA struct {
	mu      sync.RWMutex
	org     string
	key     *ecdsa.PrivateKey
	cert    *x509.Certificate
	certDER []byte
	serial  int64
	issued  map[string]bool // enrollment id -> issued
	revoked map[string]bool // enrollment id -> revoked
	now     func() time.Time
}

// NewCA creates a self-signed CA for the given organization name.
func NewCA(org string) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("identity: generate CA key: %w", err)
	}
	now := time.Now()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject: pkix.Name{
			CommonName:   "ca." + org,
			Organization: []string{org},
		},
		NotBefore:             now.Add(-time.Hour),
		NotAfter:              now.Add(10 * 365 * 24 * time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("identity: self-sign CA cert: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("identity: parse CA cert: %w", err)
	}
	return &CA{
		org:     org,
		key:     key,
		cert:    cert,
		certDER: der,
		serial:  1,
		issued:  make(map[string]bool),
		revoked: make(map[string]bool),
		now:     time.Now,
	}, nil
}

// NewVerifyingCA reconstructs a verification-only CA from its certificate
// PEM: it can verify certificates issued by the real CA but holds no
// private key, so Enroll fails. This is how a remote process joins a
// network's trust domain over the wire — the peer transport's handshake
// ships CA certificates, never keys.
func NewVerifyingCA(certPEM []byte) (*CA, error) {
	block, _ := pem.Decode(certPEM)
	if block == nil || block.Type != "CERTIFICATE" {
		return nil, errors.New("identity: no certificate PEM block")
	}
	cert, err := x509.ParseCertificate(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("identity: parse CA cert: %w", err)
	}
	if !cert.IsCA {
		return nil, errors.New("identity: certificate is not a CA")
	}
	if len(cert.Subject.Organization) == 0 {
		return nil, errors.New("identity: CA cert carries no organization")
	}
	return &CA{
		org:     cert.Subject.Organization[0],
		cert:    cert,
		certDER: block.Bytes,
		issued:  make(map[string]bool),
		revoked: make(map[string]bool),
		now:     time.Now,
	}, nil
}

// Org returns the organization name this CA serves.
func (ca *CA) Org() string { return ca.org }

// CertPEM returns the CA certificate in PEM form.
func (ca *CA) CertPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.certDER})
}

// Enroll issues a new signing identity with the given enrollment id and role.
// Enrollment ids must be unique within the org.
func (ca *CA) Enroll(enrollID string, role Role) (*SigningIdentity, error) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if ca.key == nil {
		return nil, fmt.Errorf("identity: CA %s is verification-only (no private key)", ca.org)
	}
	if ca.issued[enrollID] {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateEnrollKey, enrollID)
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("identity: generate key for %q: %w", enrollID, err)
	}
	ca.serial++
	now := ca.now()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(ca.serial),
		Subject: pkix.Name{
			CommonName:         enrollID,
			Organization:       []string{ca.org},
			OrganizationalUnit: []string{role.String()},
		},
		NotBefore: now.Add(-time.Hour),
		NotAfter:  now.Add(5 * 365 * 24 * time.Hour),
		KeyUsage:  x509.KeyUsageDigitalSignature,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		return nil, fmt.Errorf("identity: issue cert for %q: %w", enrollID, err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("identity: parse issued cert: %w", err)
	}
	ca.issued[enrollID] = true
	return &SigningIdentity{
		org:     ca.org,
		id:      enrollID,
		role:    role,
		key:     key,
		cert:    cert,
		certDER: der,
	}, nil
}

// Revoke marks an enrollment id as revoked; subsequently presented
// certificates for that id fail verification.
func (ca *CA) Revoke(enrollID string) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.revoked[enrollID] = true
}

// VerifyCert checks that the certificate was issued by this CA, is inside
// its validity window, and has not been revoked.
//
// The validity window is judged against the verifying process's wall clock
// (ca.now), not against any block or transaction time. Two peers validating
// the same block across a certificate's NotAfter can therefore reach
// different verdicts on it; the commit path inherits this divergence from
// Fabric's MSP, which also checks expiry against local time.
func (ca *CA) VerifyCert(cert *x509.Certificate) error {
	if err := cert.CheckSignatureFrom(ca.cert); err != nil {
		return fmt.Errorf("%w: %v", ErrCertNotSignedByCA, err)
	}
	return ca.checkStatus(cert)
}

// checkStatus is the cheap half of VerifyCert: the validity window and the
// revocation list. MSP identity-cache hits re-run it on every lookup, since
// both can change after the one-time signature check.
func (ca *CA) checkStatus(cert *x509.Certificate) error {
	now := ca.now()
	if now.Before(cert.NotBefore) || now.After(cert.NotAfter) {
		return ErrCertExpired
	}
	ca.mu.RLock()
	revoked := ca.revoked[cert.Subject.CommonName]
	ca.mu.RUnlock()
	if revoked {
		return fmt.Errorf("%w: %q", ErrRevoked, cert.Subject.CommonName)
	}
	return nil
}

// SigningIdentity is a private key + certificate pair able to sign messages.
type SigningIdentity struct {
	org     string
	id      string
	role    Role
	key     *ecdsa.PrivateKey
	cert    *x509.Certificate
	certDER []byte
}

// Org returns the owning organization.
func (s *SigningIdentity) Org() string { return s.org }

// ID returns the enrollment id (certificate CN).
func (s *SigningIdentity) ID() string { return s.id }

// Role returns the role baked into the certificate.
func (s *SigningIdentity) Role() Role { return s.role }

// MSPID returns the Fabric-style MSP identifier ("Org1MSP" style).
func (s *SigningIdentity) MSPID() string { return s.org + "MSP" }

// Sign signs the SHA-256 digest of msg with the identity's private key.
func (s *SigningIdentity) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	sig, err := ecdsa.SignASN1(rand.Reader, s.key, digest[:])
	if err != nil {
		return nil, fmt.Errorf("identity: sign: %w", err)
	}
	return sig, nil
}

// Serialize returns the wire form of the identity (MSP id + cert DER),
// matching Fabric's SerializedIdentity proto.
func (s *SigningIdentity) Serialize() []byte {
	b, _ := json.Marshal(serializedIdentity{MSPID: s.MSPID(), CertDER: s.certDER})
	return b
}

// Identity returns the public (verification-only) half.
func (s *SigningIdentity) Identity() *Identity {
	return &Identity{org: s.org, id: s.id, role: s.role, cert: s.cert, certDER: s.certDER}
}

// CertPEM returns the identity certificate in PEM form; this is what
// HyperProv stores in each provenance record's creator field.
func (s *SigningIdentity) CertPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: s.certDER})
}

type serializedIdentity struct {
	MSPID   string `json:"mspid"`
	CertDER []byte `json:"certDer"`
}

// Identity is the verification-only view of a member: certificate plus
// parsed org/role attributes.
type Identity struct {
	org     string
	id      string
	role    Role
	cert    *x509.Certificate
	certDER []byte
}

// Org returns the owning organization.
func (id *Identity) Org() string { return id.org }

// ID returns the enrollment id (certificate CN).
func (id *Identity) ID() string { return id.id }

// Role returns the role parsed from the certificate OU.
func (id *Identity) Role() Role { return id.role }

// MSPID returns the MSP identifier.
func (id *Identity) MSPID() string { return id.org + "MSP" }

// Verify checks that sig is a valid signature over msg by this identity.
func (id *Identity) Verify(msg, sig []byte) error {
	digest := sha256.Sum256(msg)
	if !ecdsa.VerifyASN1(id.cert.PublicKey.(*ecdsa.PublicKey), digest[:], sig) {
		return ErrBadSignature
	}
	return nil
}

// Subject renders the identity the way HyperProv records it in the creator
// field of a provenance record.
func (id *Identity) Subject() string {
	return fmt.Sprintf("x509::CN=%s,O=%s,OU=%s", id.id, id.org, id.role)
}

// IdentityCacheCap bounds each MSP's cache of verified identities. Only the
// canonical serialized form of a CA-issued certificate is cached, so an entry
// holds a parsed certificate plus its serialized form, a few KiB, and a full
// cache costs a few MiB — and holds far more identities than a channel's
// working set of clients and peers.
const IdentityCacheCap = 1024

// MSP verifies serialized identities against the set of known org CAs. It is
// shared by peers, orderers, and clients.
type MSP struct {
	mu     sync.RWMutex
	cas    map[string]*CA // org -> CA
	verify *VerifyCache
	ids    *lru[string, verifiedIdentity] // serialized identity -> entry
}

// verifiedIdentity is an identity-cache entry: the parsed identity and the
// CA its certificate was chain-verified against.
type verifiedIdentity struct {
	id *Identity
	ca *CA
}

// NewMSP creates an MSP trusting the given CAs. Every MSP carries a shared
// signature-verification cache (see VerifyCache) so all components resolving
// identities through it — gateway checks, commit validation, gossip
// redelivery — pool their verification work, and a cache of verified
// identities (see Deserialize).
func NewMSP(cas ...*CA) *MSP {
	m := &MSP{
		cas:    make(map[string]*CA, len(cas)),
		verify: NewVerifyCache(0),
		ids:    newLRU[string, verifiedIdentity](IdentityCacheCap),
	}
	for _, ca := range cas {
		m.cas[ca.org] = ca
	}
	return m
}

// VerifyCache returns the MSP's shared signature-verification cache.
func (m *MSP) VerifyCache() *VerifyCache { return m.verify }

// AddCA registers a trusted org CA, replacing any CA already registered for
// that org. Cached identities verified against a replaced CA are not reused:
// their next Deserialize verifies them against the new one.
func (m *MSP) AddCA(ca *CA) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cas[ca.org] = ca
}

// Orgs lists the trusted organization names.
func (m *MSP) Orgs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.cas))
	for org := range m.cas {
		out = append(out, org)
	}
	return out
}

// IdentityCacheStats returns a snapshot of the identity cache's hit/miss
// counters and current size.
func (m *MSP) IdentityCacheStats() VerifyCacheStats { return m.ids.stats() }

// Deserialize parses and verifies a serialized identity: the certificate
// must carry an ECDSA P-256 key, chain to a trusted CA, be within validity,
// and not be revoked.
//
// Identities that pass are cached, keyed on their exact serialized bytes,
// so the chain check (an ECDSA verification of the certificate) runs once
// per identity rather than once per call. A cache hit still re-checks the
// validity window and revocation. An entry whose org now maps to a
// different CA than the one it was verified against (after AddCA) is
// dropped and the identity re-verified. Failures are never cached, and
// neither is an accepted identity in any form other than the one
// SigningIdentity.Serialize produces (extra JSON fields or whitespace, a
// different mspid): anyone can build such variants of a public identity,
// so caching them would let a sender fill the cache with junk of any size.
func (m *MSP) Deserialize(raw []byte) (*Identity, error) {
	key := string(raw)
	if e, ok := m.ids.get(key); ok {
		if m.trusts(e.ca, e.id.org) {
			if err := e.ca.checkStatus(e.id.cert); err != nil {
				return nil, err
			}
			return e.id, nil
		}
		m.ids.remove(key)
	}
	e, err := m.verifyIdentity(raw)
	if err != nil {
		return nil, err
	}
	if canonical, _ := json.Marshal(serializedIdentity{MSPID: e.id.MSPID(), CertDER: e.id.certDER}); bytes.Equal(canonical, raw) {
		m.ids.put(key, e)
	}
	return e.id, nil
}

// trusts reports whether ca is the CA currently registered for org.
func (m *MSP) trusts(ca *CA, org string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cas[org] == ca
}

// verifyIdentity is the full, uncached check behind Deserialize.
func (m *MSP) verifyIdentity(raw []byte) (verifiedIdentity, error) {
	var si serializedIdentity
	if err := json.Unmarshal(raw, &si); err != nil {
		return verifiedIdentity{}, fmt.Errorf("%w: %v", ErrMalformedIdentity, err)
	}
	cert, err := x509.ParseCertificate(si.CertDER)
	if err != nil {
		return verifiedIdentity{}, fmt.Errorf("%w: %v", ErrMalformedIdentity, err)
	}
	// Identity.Verify assumes a P-256 key; anything else is refused here,
	// before it can reach the cache or a signature check.
	if pub, ok := cert.PublicKey.(*ecdsa.PublicKey); !ok || pub.Curve != elliptic.P256() {
		return verifiedIdentity{}, fmt.Errorf("%w: public key is not ECDSA P-256", ErrMalformedIdentity)
	}
	org := ""
	if len(cert.Subject.Organization) > 0 {
		org = cert.Subject.Organization[0]
	}
	m.mu.RLock()
	ca, ok := m.cas[org]
	m.mu.RUnlock()
	if !ok {
		return verifiedIdentity{}, fmt.Errorf("%w: %q", ErrUnknownOrg, org)
	}
	if err := ca.VerifyCert(cert); err != nil {
		return verifiedIdentity{}, err
	}
	return verifiedIdentity{
		id: &Identity{
			org:     org,
			id:      cert.Subject.CommonName,
			role:    parseRole(cert),
			cert:    cert,
			certDER: si.CertDER,
		},
		ca: ca,
	}, nil
}

func parseRole(cert *x509.Certificate) Role {
	if len(cert.Subject.OrganizationalUnit) == 0 {
		return RoleClient
	}
	switch cert.Subject.OrganizationalUnit[0] {
	case "peer":
		return RolePeer
	case "orderer":
		return RoleOrderer
	case "admin":
		return RoleAdmin
	default:
		return RoleClient
	}
}
