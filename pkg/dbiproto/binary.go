package dbiproto

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary framing. Every message — request or response — is one frame:
//
//	uint32 LE  length   (bytes after this field: 6 + len(payload))
//	byte       version  (currently 1)
//	byte       opcode   (request op, or op|0x80 for its response)
//	uint32 LE  seq      (echoed verbatim in the response)
//	[]byte     payload
//
// Request payloads are a key batch (uvarint count, then count uint64
// LE keys); Ping and Stats send an empty payload. Response payloads
// open with one status byte; on StatusOK the answer follows (a key
// batch, a bool-per-key byte vector for IsDirty, or JSON for Stats),
// on error the remainder is a UTF-8 message.

// Request opcodes. Responses echo the opcode with RespBit set.
const (
	OpPing    = 0x01
	OpSet     = 0x02
	OpIsDirty = 0x03
	OpRegion  = 0x04
	OpFlush   = 0x05
	OpStats   = 0x06

	// RespBit marks a frame as a response to opcode&^RespBit.
	RespBit = 0x80
)

// MaxFrame caps the length field: nothing legitimate approaches 1 MiB
// (a maximal SetDirty batch of MaxBatch keys is ~512 KiB), and the cap
// keeps a corrupt or hostile length prefix from ballooning a read.
const MaxFrame = 1 << 20

// MaxBatch caps the keys of one key batch, request or answer; a batch
// of MaxBatch keys fits in one frame. An answer can carry up to a row
// of keys per request key, so a set, region or flush request may hold
// at most MaxBatch / row size keys (PROTOCOL.md).
const MaxBatch = 1 << 16

// headerLen is the fixed part covered by the length field.
const headerLen = 6

// Frame is one decoded message.
type Frame struct {
	Version byte
	Op      byte
	Seq     uint32
	Payload []byte
}

// AppendFrame serializes a frame into b and returns it — the writer
// side allocates nothing when b has capacity.
func AppendFrame(b []byte, f Frame) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(headerLen+len(f.Payload)))
	b = append(b, f.Version, f.Op)
	b = binary.LittleEndian.AppendUint32(b, f.Seq)
	return append(b, f.Payload...)
}

// ReadFrame reads one frame from r, reusing buf (grown as needed) for
// the payload; the returned Frame's Payload aliases the returned
// buffer. A length over MaxFrame or under the header size is a
// *StatusError with CodeTooLarge/CodeBadRequest — the stream is then
// unsynchronized and the connection should be dropped.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return Frame{}, buf, &StatusError{Code: CodeTooLarge, Message: fmt.Sprintf("frame length %d exceeds %d", n, MaxFrame)}
	}
	if n < headerLen {
		return Frame{}, buf, &StatusError{Code: CodeBadRequest, Message: fmt.Sprintf("frame length %d below header size", n)}
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, err
	}
	return Frame{
		Version: buf[0],
		Op:      buf[1],
		Seq:     binary.LittleEndian.Uint32(buf[2:6]),
		Payload: buf[headerLen:],
	}, buf, nil
}

// AppendKeys serializes a key batch: uvarint count, then each key as
// uint64 LE.
func AppendKeys(b []byte, keys []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint64(b, k)
	}
	return b
}

// DecodeKeys parses a key batch appended into dst, returning dst and
// the remaining bytes.
func DecodeKeys(p []byte, dst []uint64) ([]uint64, []byte, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return dst, p, &StatusError{Code: CodeBadRequest, Message: "truncated key count"}
	}
	p = p[n:]
	if count > MaxBatch {
		return dst, p, &StatusError{Code: CodeTooLarge, Message: fmt.Sprintf("batch of %d keys exceeds %d", count, MaxBatch)}
	}
	if uint64(len(p)) < count*8 {
		return dst, p, &StatusError{Code: CodeBadRequest, Message: fmt.Sprintf("key batch truncated: %d keys declared, %d bytes left", count, len(p))}
	}
	for i := uint64(0); i < count; i++ {
		dst = append(dst, binary.LittleEndian.Uint64(p[i*8:]))
	}
	return dst, p[count*8:], nil
}

// AppendBools serializes the IsDirty answer vector, one byte (0/1)
// per key after a uvarint count.
func AppendBools(b []byte, vs []bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// DecodeBools parses an answer vector appended into dst.
func DecodeBools(p []byte, dst []bool) ([]bool, []byte, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return dst, p, &StatusError{Code: CodeBadRequest, Message: "truncated bool count"}
	}
	p = p[n:]
	if count > MaxBatch {
		return dst, p, &StatusError{Code: CodeTooLarge, Message: fmt.Sprintf("batch of %d answers exceeds %d", count, MaxBatch)}
	}
	if uint64(len(p)) < count {
		return dst, p, &StatusError{Code: CodeBadRequest, Message: "bool vector truncated"}
	}
	for i := uint64(0); i < count; i++ {
		dst = append(dst, p[i] != 0)
	}
	return dst, p[count:], nil
}

// DecodeStatus splits a response payload into its status and body; a
// non-OK status yields the decoded *StatusError.
func DecodeStatus(p []byte) ([]byte, error) {
	if len(p) == 0 {
		return nil, &StatusError{Code: CodeBadRequest, Message: "empty response payload"}
	}
	if p[0] != StatusOK {
		return nil, &StatusError{Code: CodeOf(p[0]), Message: string(p[1:])}
	}
	return p[1:], nil
}
