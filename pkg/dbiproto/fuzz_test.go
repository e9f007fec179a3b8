package dbiproto

import (
	"bytes"
	"encoding/hex"
	"slices"
	"testing"
)

// goldenWires decodes the golden frames that seed every fuzz target.
func goldenWires(f *testing.F) (set, isDirtyResp []byte) {
	f.Helper()
	set, err := hex.DecodeString(goldenSetWire)
	if err != nil {
		f.Fatal(err)
	}
	isDirtyResp, err = hex.DecodeString(goldenIsDirtyRespWire)
	if err != nil {
		f.Fatal(err)
	}
	return set, isDirtyResp
}

// FuzzReadFrame reads frames from an arbitrary byte stream until the
// first error. Every frame returned must re-encode to exactly the bytes
// it was read from.
func FuzzReadFrame(f *testing.F) {
	set, resp := goldenWires(f)
	f.Add(set)
	f.Add(resp)
	f.Add(append(slices.Clone(set), resp...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // length over MaxFrame
	f.Add([]byte{2, 0, 0, 0, 1, 2})       // length under the header
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		var buf []byte
		for off := 0; ; {
			fr, b, err := ReadFrame(r, buf)
			buf = b
			if err != nil {
				return
			}
			end := len(in) - r.Len()
			if got := AppendFrame(nil, fr); !bytes.Equal(got, in[off:end]) {
				t.Fatalf("frame read from %x re-encodes to %x", in[off:end], got)
			}
			off = end
		}
	})
}

// FuzzDecodeKeys checks that any key batch DecodeKeys accepts holds at
// most MaxBatch keys and survives an encode and a second decode
// unchanged.
func FuzzDecodeKeys(f *testing.F) {
	set, _ := goldenWires(f)
	keys := set[4+headerLen:]
	f.Add(keys)
	f.Add(keys[:len(keys)-1])                   // truncated
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // count far over MaxBatch
	f.Fuzz(func(t *testing.T, p []byte) {
		got, _, err := DecodeKeys(p, nil)
		if err != nil {
			return
		}
		if len(got) > MaxBatch {
			t.Fatalf("decoded %d keys, over MaxBatch", len(got))
		}
		again, rest, err := DecodeKeys(AppendKeys(nil, got), nil)
		if err != nil || len(rest) != 0 || !slices.Equal(again, got) {
			t.Fatalf("re-decode of %v = %v, rest %d bytes, err %v", got, again, len(rest), err)
		}
	})
}

// FuzzDecodeBools is FuzzDecodeKeys for the IsDirty answer vector.
func FuzzDecodeBools(f *testing.F) {
	_, resp := goldenWires(f)
	answers := resp[4+headerLen+1:] // after the status byte
	f.Add(answers)
	f.Add(answers[:len(answers)-1])             // truncated
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // count far over MaxBatch
	f.Fuzz(func(t *testing.T, p []byte) {
		got, _, err := DecodeBools(p, nil)
		if err != nil {
			return
		}
		if len(got) > MaxBatch {
			t.Fatalf("decoded %d answers, over MaxBatch", len(got))
		}
		again, rest, err := DecodeBools(AppendBools(nil, got), nil)
		if err != nil || len(rest) != 0 || !slices.Equal(again, got) {
			t.Fatalf("re-decode of %v = %v, rest %d bytes, err %v", got, again, len(rest), err)
		}
	})
}
