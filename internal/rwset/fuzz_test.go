package rwset

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// FuzzDecodeRWSet throws arbitrary bytes at the rwset decoder. rwsets
// arrive inside proposal responses from remote endorsers and inside blocks
// from gossip, so the contract is the block codec's: no panic, no unbounded
// allocation, every failure a structured codec sentinel ('{'-prefixed
// input, the pre-v2 JSON form, always ErrMalformed), and every accepted
// input survives a decode, encode, decode round-trip unchanged.
func FuzzDecodeRWSet(f *testing.F) {
	empty, err := (&ReadWriteSet{}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)

	v := statedb.Version{BlockNum: 3, TxNum: 1}
	full := &ReadWriteSet{
		Reads:      []Read{{Key: "r0"}, {Key: "r1", Version: &v}},
		Writes:     []Write{{Key: "w0", IsDelete: true}, {Key: "w1", Value: []byte("x")}},
		RangeReads: []RangeRead{{StartKey: "a", EndKey: "z", Keys: []string{"b", "c"}}},
		QueryReads: []QueryRead{{Query: json.RawMessage(`{"selector":{"owner":"alice"}}`), Keys: []string{"k1"}}},
	}
	good, err := full.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)

	// Damaged variants: truncation at several depths, bad magic, stray
	// tail, bare magic, junk.
	f.Add(good[:len(good)-3])
	f.Add(good[:len(good)/2])
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	f.Add(append(append([]byte(nil), good...), 0x00))
	f.Add([]byte("HPRW"))
	f.Add([]byte{})

	// The pre-v2 JSON encoding of the same rwset.
	legacy, err := json.Marshal(full)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)

	f.Fuzz(func(t *testing.T, data []byte) {
		rws, err := Unmarshal(data)
		if err != nil {
			if !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, codec.ErrMalformed) {
				t.Fatalf("unstructured error from Unmarshal: %v", err)
			}
			if len(data) > 0 && data[0] == '{' && !errors.Is(err, codec.ErrMalformed) {
				t.Fatalf("'{' input: want ErrMalformed, got %v", err)
			}
			return
		}
		raw, err := rws.Marshal()
		if err != nil {
			t.Fatalf("re-encode of accepted rwset failed: %v", err)
		}
		rt, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("re-decode of re-encoded rwset failed: %v", err)
		}
		if !reflect.DeepEqual(rws, rt) {
			t.Fatalf("rwset round-trip mismatch:\n got %#v\nwant %#v", rt, rws)
		}
	})
}
