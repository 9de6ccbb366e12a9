package committer

import (
	"testing"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/identity"
)

// TestPrevalidateWarmCacheSkipsSignatureWork pins the redelivery fast path:
// prevalidating the same envelope twice (gossip redelivery, gateway-checked
// then commit-checked) does every ECDSA verification exactly once. The
// modeled Exec.Verify charge rides the same onMiss hook, so "no new misses"
// is also "no new hardware charge".
func TestPrevalidateWarmCacheSkipsSignatureWork(t *testing.T) {
	f := newTxFactory(t)
	v := f.verifier()
	env := f.envelope(f.txID(), writeSet("k"), nil)

	if res := v.Prevalidate(&env); res.Code != blockstore.TxValid {
		t.Fatalf("first prevalidate: %v", res.Code)
	}
	cold := f.msp.VerifyCache().Stats()
	if cold.Misses < 2 { // creator signature + one endorsement
		t.Fatalf("cold pass recorded %d misses, want >= 2", cold.Misses)
	}

	if res := v.Prevalidate(&env); res.Code != blockstore.TxValid {
		t.Fatalf("warm prevalidate: %v", res.Code)
	}
	warm := f.msp.VerifyCache().Stats()
	if warm.Misses != cold.Misses {
		t.Fatalf("warm pass performed %d new verifications, want 0", warm.Misses-cold.Misses)
	}
	if warm.Hits < cold.Hits+2 {
		t.Fatalf("warm pass hit %d times, want >= 2", warm.Hits-cold.Hits)
	}

	// A tampered copy must still fail: the cache keys on exact bytes.
	bad := f.envelope(f.txID(), writeSet("k2"), nil)
	bad.Function = "tampered-after-signing"
	if res := v.Prevalidate(&bad); res.Code != blockstore.TxBadSignature {
		t.Fatalf("tampered envelope: %v, want TxBadSignature", res.Code)
	}
}

// TestVerdictsIndependentOfIdentityCache pins the rule that commit verdicts
// never depend on cache state: one block stream committed through a cold
// MSP and through an MSP pre-warmed on every identity must produce the same
// codes and state — including for a creator revoked after the warm MSP
// cached it, whose transaction must fail on the cache hit too.
func TestVerdictsIndependentOfIdentityCache(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f)
	revokee, err := f.ca.Enroll("client-revoked", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	client := f.client
	f.client = revokee
	revokedTx := f.envelope(f.txID(), writeSet("r"), nil)
	f.client = client
	last := stream[len(stream)-1]
	b, err := blockstore.NewBlock(last.Header.Number+1, last.Header.Hash(),
		[]blockstore.Envelope{revokedTx, f.envelope(f.txID(), writeSet("s"), nil)})
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream, b)

	warm := identity.NewMSP(f.ca)
	for _, sid := range []*identity.SigningIdentity{f.client, f.endorser, revokee} {
		if _, err := warm.Deserialize(sid.Serialize()); err != nil {
			t.Fatal(err)
		}
	}
	f.ca.Revoke("client-revoked")
	warmed := warm.IdentityCacheStats()

	run := func(msp *identity.MSP) *ledger {
		f.msp = msp
		l := newLedger()
		c := NewSerial(l.config(f, 0))
		for _, b := range stream {
			if !c.Submit(b) {
				t.Fatalf("block %d rejected", b.Header.Number)
			}
		}
		return l
	}
	coldL := run(identity.NewMSP(f.ca))
	warmL := run(warm)

	if st := warm.IdentityCacheStats(); st.Misses != warmed.Misses || st.Hits == warmed.Hits {
		t.Fatalf("warm run was not served from the identity cache: %+v -> %+v", warmed, st)
	}
	for n := uint64(0); n < coldL.blocks.Height(); n++ {
		cb, err := coldL.blocks.GetByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := warmL.blocks.GetByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cb.TxValidation {
			if cb.TxValidation[i] != wb.TxValidation[i] {
				t.Errorf("block %d tx %d: cold=%s warm=%s", n, i, cb.TxValidation[i], wb.TxValidation[i])
			}
		}
	}
	for name, l := range map[string]*ledger{"cold": coldL, "warm": warmL} {
		got, err := l.blocks.GetByNumber(b.Header.Number)
		if err != nil {
			t.Fatal(err)
		}
		if got.TxValidation[0] != blockstore.TxBadSignature || got.TxValidation[1] != blockstore.TxValid {
			t.Errorf("%s run: last block codes = %v, want [TxBadSignature TxValid]", name, got.TxValidation)
		}
	}
	if cf, wf := StateFingerprint(coldL.state), StateFingerprint(warmL.state); cf != wf {
		t.Errorf("state fingerprints diverge: cold=%s warm=%s", cf, wf)
	}
}
