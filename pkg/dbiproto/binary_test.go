package dbiproto

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
)

// goldenSetWire is a SetDirty request frame: version 1, opcode 0x02,
// seq 0x01020304, payload = uvarint(2) + keys 5 and 0x0102030405060708.
const goldenSetWire = "17000000" + // length: 6 header + 17 payload = 23 = 0x17, LE
	"01" + "02" + // version, opcode
	"04030201" + // seq LE
	"02" + // uvarint key count
	"0500000000000000" + // key 5 LE
	"0807060504030201" // key 0x0102030405060708 LE

// goldenIsDirtyRespWire is an IsDirty response frame: status OK then a
// bool vector.
const goldenIsDirtyRespWire = "0b000000" + // length 6+5
	"01" + "83" + // version, OpIsDirty|RespBit
	"07000000" + // seq
	"00" + // StatusOK
	"03" + "010001" // 3 answers: true,false,true

// TestFrameGolden pins the exact wire bytes of a SetDirty request so
// an incompatible re-encode fails loudly rather than silently.
func TestFrameGolden(t *testing.T) {
	payload := AppendKeys(nil, []uint64{5, 0x0102030405060708})
	wire := AppendFrame(nil, Frame{Version: 1, Op: OpSet, Seq: 0x01020304, Payload: payload})
	if got, want := hex.EncodeToString(wire), goldenSetWire; got != want {
		t.Fatalf("wire bytes changed:\n got %s\nwant %s", got, want)
	}

	f, _, err := ReadFrame(bytes.NewReader(wire), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != 1 || f.Op != OpSet || f.Seq != 0x01020304 {
		t.Fatalf("decoded header %+v", f)
	}
	keys, rest, err := DecodeKeys(f.Payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || len(keys) != 2 || keys[0] != 5 || keys[1] != 0x0102030405060708 {
		t.Fatalf("decoded keys %v, rest %d bytes", keys, len(rest))
	}
}

// TestResponseGolden pins an IsDirty response frame: status OK then a
// bool vector.
func TestResponseGolden(t *testing.T) {
	payload := append([]byte{StatusOK}, AppendBools(nil, []bool{true, false, true})...)
	wire := AppendFrame(nil, Frame{Version: 1, Op: OpIsDirty | RespBit, Seq: 7, Payload: payload})
	if got, want := hex.EncodeToString(wire), goldenIsDirtyRespWire; got != want {
		t.Fatalf("wire bytes changed:\n got %s\nwant %s", got, want)
	}
	f, _, err := ReadFrame(bytes.NewReader(wire), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := DecodeStatus(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	vs, _, err := DecodeBools(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || !vs[0] || vs[1] || !vs[2] {
		t.Fatalf("decoded bools %v", vs)
	}
}

func TestRoundTripAllOps(t *testing.T) {
	keys := []uint64{0, 1, 1 << 40, ^uint64(0)}
	for _, op := range []byte{OpPing, OpSet, OpIsDirty, OpRegion, OpFlush, OpStats} {
		var payload []byte
		if op != OpPing && op != OpStats {
			payload = AppendKeys(nil, keys)
		}
		wire := AppendFrame(nil, Frame{Version: Version, Op: op, Seq: uint32(op) * 1000, Payload: payload})
		f, _, err := ReadFrame(bytes.NewReader(wire), nil)
		if err != nil {
			t.Fatalf("op %#x: %v", op, err)
		}
		if f.Op != op || f.Seq != uint32(op)*1000 || f.Version != Version {
			t.Fatalf("op %#x: header %+v", op, f)
		}
		if payload != nil {
			got, _, err := DecodeKeys(f.Payload, nil)
			if err != nil {
				t.Fatalf("op %#x: %v", op, err)
			}
			for i := range keys {
				if got[i] != keys[i] {
					t.Fatalf("op %#x: key[%d] = %d, want %d", op, i, got[i], keys[i])
				}
			}
		}
	}
}

func TestErrorStatus(t *testing.T) {
	payload := append([]byte{StatusTooLarge}, "batch of 70000 keys exceeds 65536"...)
	body, err := DecodeStatus(payload)
	if body != nil {
		t.Fatalf("body = %q on error", body)
	}
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error %T, want *StatusError", err)
	}
	if se.Code != CodeTooLarge || se.Message != "batch of 70000 keys exceeds 65536" {
		t.Fatalf("decoded %+v", se)
	}
	for _, code := range []string{CodeBadRequest, CodeBadVersion, CodeTooLarge, CodeInternal} {
		if got := CodeOf(StatusOf(code)); got != code {
			t.Errorf("CodeOf(StatusOf(%q)) = %q", code, got)
		}
	}
}

func TestReadFrameRejectsBadLengths(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(huge), nil); err == nil {
		t.Error("accepted 4 GiB length prefix")
	}
	tiny := []byte{2, 0, 0, 0, 1, 2}
	if _, _, err := ReadFrame(bytes.NewReader(tiny), nil); err == nil {
		t.Error("accepted sub-header length prefix")
	}
}

func TestDecodeKeysRejectsTruncation(t *testing.T) {
	p := AppendKeys(nil, []uint64{1, 2, 3})
	if _, _, err := DecodeKeys(p[:len(p)-1], nil); err == nil {
		t.Error("accepted truncated key batch")
	}
	big := []byte{0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint far over MaxBatch
	if _, _, err := DecodeKeys(big, nil); err == nil {
		t.Error("accepted oversized batch count")
	}
}
