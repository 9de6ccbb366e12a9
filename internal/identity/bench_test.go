package identity

import "testing"

func BenchmarkSign(b *testing.B) {
	ca, err := NewCA("Org1")
	if err != nil {
		b.Fatal(err)
	}
	sid, err := ca.Enroll("bench", RoleClient)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sid.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	ca, err := NewCA("Org1")
	if err != nil {
		b.Fatal(err)
	}
	sid, err := ca.Enroll("bench", RoleClient)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 1024)
	sig, err := sid.Sign(msg)
	if err != nil {
		b.Fatal(err)
	}
	id := sid.Identity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := id.Verify(msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSPDeserialize measures Deserialize on an identity-cache miss
// ("cold": the entry is dropped before each call, so every call parses and
// chain-verifies the certificate, as on a fresh MSP) and on a hit ("warm":
// validity and revocation re-checks only). Dropping the entry rather than
// building a fresh MSP keeps NewMSP's allocations, and the timer pauses
// that would hide them, out of the measurement.
func BenchmarkMSPDeserialize(b *testing.B) {
	ca, err := NewCA("Org1")
	if err != nil {
		b.Fatal(err)
	}
	sid, err := ca.Enroll("bench", RoleClient)
	if err != nil {
		b.Fatal(err)
	}
	raw := sid.Serialize()
	b.Run("cold", func(b *testing.B) {
		msp := NewMSP(ca)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			msp.ids.remove(string(raw))
			if _, err := msp.Deserialize(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		msp := NewMSP(ca)
		if _, err := msp.Deserialize(raw); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := msp.Deserialize(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}
