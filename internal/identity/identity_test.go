package identity

import (
	"bytes"
	"crypto/x509"
	"errors"
	"strings"
	"testing"
	"time"
)

func newTestCA(t *testing.T, org string) *CA {
	t.Helper()
	ca, err := NewCA(org)
	if err != nil {
		t.Fatalf("NewCA(%q): %v", org, err)
	}
	return ca
}

func TestEnrollAndSignVerify(t *testing.T) {
	ca := newTestCA(t, "Org1")
	id, err := ca.Enroll("client0", RoleClient)
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if got, want := id.Org(), "Org1"; got != want {
		t.Errorf("Org() = %q, want %q", got, want)
	}
	if got, want := id.MSPID(), "Org1MSP"; got != want {
		t.Errorf("MSPID() = %q, want %q", got, want)
	}
	msg := []byte("provenance record payload")
	sig, err := id.Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := id.Identity().Verify(msg, sig); err != nil {
		t.Errorf("Verify valid sig: %v", err)
	}
	if err := id.Identity().Verify([]byte("tampered"), sig); err == nil {
		t.Error("Verify tampered message succeeded, want failure")
	}
}

func TestDuplicateEnrollment(t *testing.T) {
	ca := newTestCA(t, "Org1")
	if _, err := ca.Enroll("peer0", RolePeer); err != nil {
		t.Fatalf("first Enroll: %v", err)
	}
	_, err := ca.Enroll("peer0", RolePeer)
	if err == nil {
		t.Fatal("duplicate Enroll succeeded, want error")
	}
	if !strings.Contains(err.Error(), "already issued") {
		t.Errorf("error = %v, want mention of already issued", err)
	}
}

func TestMSPDeserializeRoundTrip(t *testing.T) {
	ca1 := newTestCA(t, "Org1")
	ca2 := newTestCA(t, "Org2")
	msp := NewMSP(ca1, ca2)

	tests := []struct {
		name string
		ca   *CA
		role Role
	}{
		{"client", ca1, RoleClient},
		{"peer", ca1, RolePeer},
		{"orderer", ca2, RoleOrderer},
		{"admin", ca2, RoleAdmin},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sid, err := tt.ca.Enroll(tt.name, tt.role)
			if err != nil {
				t.Fatalf("Enroll: %v", err)
			}
			got, err := msp.Deserialize(sid.Serialize())
			if err != nil {
				t.Fatalf("Deserialize: %v", err)
			}
			if got.ID() != tt.name {
				t.Errorf("ID = %q, want %q", got.ID(), tt.name)
			}
			if got.Role() != tt.role {
				t.Errorf("Role = %v, want %v", got.Role(), tt.role)
			}
			if got.Org() != tt.ca.Org() {
				t.Errorf("Org = %q, want %q", got.Org(), tt.ca.Org())
			}
		})
	}
}

func TestMSPRejectsUnknownOrg(t *testing.T) {
	ca1 := newTestCA(t, "Org1")
	rogue := newTestCA(t, "Mallory")
	msp := NewMSP(ca1)
	sid, err := rogue.Enroll("evil", RoleClient)
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if _, err := msp.Deserialize(sid.Serialize()); err == nil {
		t.Fatal("Deserialize of unknown org succeeded, want error")
	}
}

func TestMSPRejectsForgedCert(t *testing.T) {
	// A rogue CA that reuses a trusted org name must still be rejected,
	// because its issuing key differs from the trusted CA's.
	trusted := newTestCA(t, "Org1")
	rogue := newTestCA(t, "Org1")
	msp := NewMSP(trusted)
	sid, err := rogue.Enroll("imposter", RolePeer)
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	_, err = msp.Deserialize(sid.Serialize())
	if err == nil {
		t.Fatal("Deserialize of forged cert succeeded, want error")
	}
}

func TestMSPRejectsMalformed(t *testing.T) {
	msp := NewMSP(newTestCA(t, "Org1"))
	for _, raw := range [][]byte{nil, {}, []byte("not json"), []byte(`{"mspid":"x","certDer":"aGk="}`)} {
		if _, err := msp.Deserialize(raw); err == nil {
			t.Errorf("Deserialize(%q) succeeded, want error", raw)
		}
	}
}

func TestRevocation(t *testing.T) {
	ca := newTestCA(t, "Org1")
	msp := NewMSP(ca)
	sid, err := ca.Enroll("client1", RoleClient)
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if _, err := msp.Deserialize(sid.Serialize()); err != nil {
		t.Fatalf("Deserialize before revoke: %v", err)
	}
	ca.Revoke("client1")
	if _, err := msp.Deserialize(sid.Serialize()); !errors.Is(err, ErrRevoked) {
		t.Fatalf("Deserialize after revoke = %v, want ErrRevoked", err)
	}
	// The identity was cached by the first call, so the revocation must
	// have been caught on a cache hit, not by a fresh verification.
	if st := msp.IdentityCacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("identity cache stats = %+v, want the rejection on a hit", st)
	}
}

func TestExpiredCertRejected(t *testing.T) {
	ca := newTestCA(t, "Org1")
	sid, err := ca.Enroll("client1", RoleClient)
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	// Shift the CA's clock far into the future: cert validity is 5 years.
	ca.now = func() time.Time { return time.Now().Add(6 * 365 * 24 * time.Hour) }
	msp := NewMSP(ca)
	if _, err := msp.Deserialize(sid.Serialize()); err == nil {
		t.Fatal("Deserialize of expired cert succeeded, want error")
	}
}

func TestCertPEMParseable(t *testing.T) {
	ca := newTestCA(t, "Org1")
	sid, err := ca.Enroll("client0", RoleClient)
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	pemBytes := sid.CertPEM()
	if !bytes.Contains(pemBytes, []byte("BEGIN CERTIFICATE")) {
		t.Fatalf("CertPEM missing PEM header: %s", pemBytes)
	}
	if !bytes.Contains(ca.CertPEM(), []byte("BEGIN CERTIFICATE")) {
		t.Fatal("CA CertPEM missing PEM header")
	}
}

func TestSubjectFormat(t *testing.T) {
	ca := newTestCA(t, "Org1")
	sid, err := ca.Enroll("sensor-7", RoleClient)
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	got := sid.Identity().Subject()
	want := "x509::CN=sensor-7,O=Org1,OU=client"
	if got != want {
		t.Errorf("Subject = %q, want %q", got, want)
	}
}

func TestRoleString(t *testing.T) {
	tests := []struct {
		role Role
		want string
	}{
		{RoleClient, "client"}, {RolePeer, "peer"},
		{RoleOrderer, "orderer"}, {RoleAdmin, "admin"}, {Role(99), "role(99)"},
	}
	for _, tt := range tests {
		if got := tt.role.String(); got != tt.want {
			t.Errorf("Role(%d).String() = %q, want %q", tt.role, got, tt.want)
		}
	}
}

func TestVerifyCertDirect(t *testing.T) {
	ca := newTestCA(t, "Org1")
	sid, err := ca.Enroll("p", RolePeer)
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	cert, err := x509.ParseCertificate(sid.certDER)
	if err != nil {
		t.Fatalf("ParseCertificate: %v", err)
	}
	if err := ca.VerifyCert(cert); err != nil {
		t.Errorf("VerifyCert: %v", err)
	}
}

func TestMSPOrgs(t *testing.T) {
	msp := NewMSP(newTestCA(t, "Org1"))
	msp.AddCA(newTestCA(t, "Org2"))
	orgs := msp.Orgs()
	if len(orgs) != 2 {
		t.Fatalf("Orgs() = %v, want 2 entries", orgs)
	}
	seen := map[string]bool{}
	for _, o := range orgs {
		seen[o] = true
	}
	if !seen["Org1"] || !seen["Org2"] {
		t.Errorf("Orgs() = %v, want Org1 and Org2", orgs)
	}
}
