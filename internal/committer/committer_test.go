package committer

import (
	"fmt"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// txFactory builds signed envelopes the validation pipeline accepts (or
// rejects, when deliberately broken).
type txFactory struct {
	t        testing.TB
	ca       *identity.CA
	msp      *identity.MSP
	client   *identity.SigningIdentity
	endorser *identity.SigningIdentity
	policy   endorser.Policy
	nextTx   int
}

func newTxFactory(t testing.TB) *txFactory {
	t.Helper()
	ca, err := identity.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	client, err := ca.Enroll("client0", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	peerID, err := ca.Enroll("peer0", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	return &txFactory{
		t:        t,
		ca:       ca,
		msp:      identity.NewMSP(ca),
		client:   client,
		endorser: peerID,
		policy:   endorser.SignedBy("Org1MSP"),
	}
}

// verifier returns a stage-1 validator over the factory's MSP and policy.
func (f *txFactory) verifier() *EnvelopeVerifier {
	return &EnvelopeVerifier{
		MSP: f.msp,
		Policy: func(cc string) (endorser.Policy, bool) {
			if cc != "cc" {
				return nil, false
			}
			return f.policy, true
		},
	}
}

// ledger is one committer's backing stores.
type ledger struct {
	state   *statedb.Store
	history *historydb.DB
	blocks  *blockstore.Store
}

func newLedger() *ledger {
	return &ledger{state: statedb.New(), history: historydb.New(), blocks: blockstore.NewStore()}
}

func (l *ledger) config(f *txFactory, workers int) Config {
	return Config{
		State:    l.state,
		History:  l.history,
		Blocks:   l.blocks,
		Verifier: f.verifier(),
		Workers:  workers,
	}
}

// envelope builds a fully signed envelope carrying rws. mutate, when
// non-nil, runs between endorsement signing and client signing (tampering
// after that invalidates the client signature instead).
func (f *txFactory) envelope(txID string, rws *rwset.ReadWriteSet, mutate func(*blockstore.Envelope)) blockstore.Envelope {
	f.t.Helper()
	rwsBytes, err := rws.Marshal()
	if err != nil {
		f.t.Fatal(err)
	}
	resp := &endorser.Response{
		TxID:     txID,
		Status:   shim.OK,
		RWSet:    rwsBytes,
		Endorser: f.endorser.Serialize(),
	}
	endSig, err := f.endorser.Sign(resp.SignedBytes())
	if err != nil {
		f.t.Fatal(err)
	}
	env := blockstore.Envelope{
		TxID:      txID,
		ChannelID: "ch",
		Chaincode: "cc",
		Function:  "set",
		Creator:   f.client.Serialize(),
		Timestamp: time.Unix(1700000000, 0).UTC(),
		RWSet:     rwsBytes,
		Endorsements: []blockstore.Endorsement{
			{Endorser: resp.Endorser, Signature: endSig},
		},
	}
	if mutate != nil {
		mutate(&env)
	}
	sig, err := f.client.Sign(env.SignedBytes())
	if err != nil {
		f.t.Fatal(err)
	}
	env.Signature = sig
	return env
}

// write returns an rwset with one write per key (value derived from key).
func writeSet(keys ...string) *rwset.ReadWriteSet {
	rws := &rwset.ReadWriteSet{}
	for _, k := range keys {
		rws.Writes = append(rws.Writes, rwset.Write{Key: k, Value: []byte("v-" + k)})
	}
	return rws
}

func (f *txFactory) txID() string {
	f.nextTx++
	return fmt.Sprintf("tx-%04d", f.nextTx)
}

// buildStream assembles the shared adversarial block stream: valid writes,
// MVCC conflicts, bad signatures, policy failures, malformed rwsets, an
// empty block, deletes, and a duplicate txID — every verdict the validator
// can hand out.
func buildStream(t testing.TB, f *txFactory) []*blockstore.Block {
	t.Helper()
	var blocks []*blockstore.Block
	var prev []byte
	add := func(envs ...blockstore.Envelope) {
		b, err := blockstore.NewBlock(uint64(len(blocks)), prev, envs)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		prev = b.Header.Hash()
	}

	// Block 0: plain valid writes.
	add(
		f.envelope(f.txID(), writeSet("a", "b"), nil),
		f.envelope(f.txID(), writeSet("c"), nil),
	)
	// Block 1: an MVCC loser — reads "a" as absent though block 0 created
	// it — plus an intra-block conflict pair on "d".
	staleRead := &rwset.ReadWriteSet{
		Reads:  []rwset.Read{{Key: "a", Version: nil}},
		Writes: []rwset.Write{{Key: "a", Value: []byte("stale")}},
	}
	first := &rwset.ReadWriteSet{
		Reads:  []rwset.Read{{Key: "d", Version: nil}},
		Writes: []rwset.Write{{Key: "d", Value: []byte("first")}},
	}
	second := &rwset.ReadWriteSet{
		Reads:  []rwset.Read{{Key: "d", Version: nil}},
		Writes: []rwset.Write{{Key: "d", Value: []byte("second")}},
	}
	add(
		f.envelope(f.txID(), staleRead, nil),
		f.envelope(f.txID(), first, nil),
		f.envelope(f.txID(), second, nil),
	)
	// Block 2: every prevalidation failure mode.
	badSig := f.envelope(f.txID(), writeSet("e"), nil)
	badSig.Function = "tampered-after-signing"
	noEndorse := f.envelope(f.txID(), writeSet("f"), func(env *blockstore.Envelope) {
		env.Endorsements = nil
	})
	malformed := f.envelope(f.txID(), writeSet("g"), func(env *blockstore.Envelope) {
		env.RWSet = []byte("not an rwset")
	})
	unknownCC := f.envelope(f.txID(), writeSet("h"), func(env *blockstore.Envelope) {
		env.Chaincode = "ghost"
	})
	add(badSig, noEndorse, malformed, unknownCC, f.envelope(f.txID(), writeSet("i"), nil))
	// Block 3: empty.
	add()
	// Block 4: duplicate txID — identical envelope twice; the second loses
	// MVCC because the first's write lands in blockWrites.
	dupID := f.txID()
	dupSet := &rwset.ReadWriteSet{
		Reads:  []rwset.Read{{Key: "dup", Version: nil}},
		Writes: []rwset.Write{{Key: "dup", Value: []byte("dup")}},
	}
	dup := f.envelope(dupID, dupSet, nil)
	add(dup, dup)
	// Block 5: deletes and overwrites of live keys.
	del := &rwset.ReadWriteSet{Writes: []rwset.Write{
		{Key: "a", IsDelete: true},
		{Key: "b", Value: []byte("b-v2")},
	}}
	add(f.envelope(f.txID(), del, nil))
	return blocks
}

// TestSerialAndPipelineEquivalent is the contract test: the same block
// stream must yield identical validation codes, identical final state, and
// identical history through both engines.
func TestSerialAndPipelineEquivalent(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f)

	serialLedger := newLedger()
	serial := NewSerial(serialLedger.config(f, 0))
	for _, b := range stream {
		if !serial.Submit(b) {
			t.Fatalf("serial rejected block %d", b.Header.Number)
		}
	}

	pipeLedger := newLedger()
	pipe := New(pipeLedger.config(f, 4))
	for _, b := range stream {
		if !pipe.Submit(b) {
			t.Fatalf("pipeline rejected block %d", b.Header.Number)
		}
	}
	pipe.Sync()
	pipe.Close()

	if got, want := pipeLedger.blocks.Height(), serialLedger.blocks.Height(); got != want {
		t.Fatalf("pipeline height = %d, serial = %d", got, want)
	}
	for n := uint64(0); n < serialLedger.blocks.Height(); n++ {
		sb, err := serialLedger.blocks.GetByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := pipeLedger.blocks.GetByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sb.TxValidation {
			if sb.TxValidation[i] != pb.TxValidation[i] {
				t.Errorf("block %d tx %d: serial=%s pipeline=%s",
					n, i, sb.TxValidation[i], pb.TxValidation[i])
			}
		}
	}
	if sf, pf := StateFingerprint(serialLedger.state), StateFingerprint(pipeLedger.state); sf != pf {
		t.Errorf("state fingerprints diverge: serial=%s pipeline=%s", sf, pf)
	}
	for _, key := range []string{"a", "b", "c", "d", "dup", "i"} {
		if sv, pv := serialLedger.history.Versions(key), pipeLedger.history.Versions(key); sv != pv {
			t.Errorf("history versions for %q: serial=%d pipeline=%d", key, sv, pv)
		}
	}
	if err := pipeLedger.blocks.VerifyChain(); err != nil {
		t.Errorf("pipeline chain: %v", err)
	}
}

// TestStreamVerdicts pins the exact validation codes of the adversarial
// stream, so equivalence can never degrade into "both engines equally
// wrong in a new way" without a test failing.
func TestStreamVerdicts(t *testing.T) {
	f := newTxFactory(t)
	stream := buildStream(t, f)
	l := newLedger()
	pipe := New(l.config(f, 4))
	defer pipe.Close()
	for _, b := range stream {
		pipe.Submit(b)
	}
	pipe.Sync()

	want := map[uint64][]blockstore.ValidationCode{
		0: {blockstore.TxValid, blockstore.TxValid},
		1: {blockstore.TxMVCCConflict, blockstore.TxValid, blockstore.TxMVCCConflict},
		2: {blockstore.TxBadSignature, blockstore.TxEndorsementPolicyFailure,
			blockstore.TxMalformed, blockstore.TxMalformed, blockstore.TxValid},
		3: {},
		4: {blockstore.TxValid, blockstore.TxMVCCConflict},
		5: {blockstore.TxValid},
	}
	for n, codes := range want {
		b, err := l.blocks.GetByNumber(n)
		if err != nil {
			t.Fatalf("block %d: %v", n, err)
		}
		if len(b.TxValidation) != len(codes) {
			t.Fatalf("block %d has %d codes, want %d", n, len(b.TxValidation), len(codes))
		}
		for i, c := range codes {
			if b.TxValidation[i] != c {
				t.Errorf("block %d tx %d = %s, want %s", n, i, b.TxValidation[i], c)
			}
		}
	}
	// Deletes applied: "a" gone, "b" overwritten.
	if _, ok := l.state.Get("a"); ok {
		t.Error("key a should be deleted")
	}
	if vv, ok := l.state.Get("b"); !ok || string(vv.Value) != "b-v2" {
		t.Errorf("key b = %q, want b-v2", vv.Value)
	}
}
