// Package dbiserve is the dbiserved request plane: it mounts a
// pkg/dbi tracker behind the two pkg/dbiproto protocols — HTTP+JSON
// v1 for control planes and curl, the length-prefixed binary batch
// protocol for the write-intensive data path — plus the repo-standard
// ops plane (/metrics Prometheus text, /healthz, /debug/vars,
// /debug/pprof).
package dbiserve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"

	"dbisim/internal/obs"
	"dbisim/internal/telemetry"
	"dbisim/pkg/dbi"
	"dbisim/pkg/dbiproto"
)

// Server serves one tracker over both protocols. Request-plane
// counters are atomics (many connection goroutines), exported through
// the telemetry registry under the serve. prefix.
type Server struct {
	tr  dbi.Batcher
	reg *telemetry.Registry
	// rowSize is the tracker's keys per row: the most keys one key of a
	// set, region or flush request can answer with.
	rowSize int

	jsonReqs    atomic.Uint64
	binReqs     atomic.Uint64
	errors      atomic.Uint64
	setKeys     atomic.Uint64
	evictedKeys atomic.Uint64
	conns       atomic.Uint64
}

// New wires a tracker to a server and registers its request-plane
// counters (and the tracker's own gauges) on reg.
func New(tr dbi.Batcher, reg *telemetry.Registry) *Server {
	s := &Server{tr: tr, reg: reg, rowSize: tr.RowSize()}
	reg.Counter("serve.json_requests", s.jsonReqs.Load)
	reg.Counter("serve.bin_requests", s.binReqs.Load)
	reg.Counter("serve.errors", s.errors.Load)
	reg.Counter("serve.set_keys", s.setKeys.Load)
	reg.Counter("serve.evicted_keys", s.evictedKeys.Load)
	reg.Counter("serve.bin_conns", s.conns.Load)
	reg.Gauge("serve.dirty_keys", func() float64 { return float64(tr.Stats().DirtyKeys) })
	reg.Gauge("serve.valid_rows", func() float64 { return float64(tr.Stats().ValidRows) })
	return s
}

// --- HTTP + JSON v1 ------------------------------------------------

// Handler returns the full HTTP surface: /v1/* plus the ops plane.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/set", s.keysEndpoint(dbiproto.OpSet))
	mux.HandleFunc("/v1/dirty", s.keysEndpoint(dbiproto.OpIsDirty))
	mux.HandleFunc("/v1/region", s.keysEndpoint(dbiproto.OpRegion))
	mux.HandleFunc("/v1/flush", s.keysEndpoint(dbiproto.OpFlush))
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		s.jsonReqs.Add(1)
		if r.Method != http.MethodGet {
			s.writeErr(w, http.StatusBadRequest, dbiproto.CodeBadRequest, "use GET")
			return
		}
		writeJSON(w, s.tr.Stats())
	})
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		s.writeErr(w, http.StatusNotFound, dbiproto.CodeBadRequest,
			fmt.Sprintf("unknown v1 endpoint %s", r.URL.Path))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v") {
			s.writeErr(w, http.StatusNotFound, dbiproto.CodeBadVersion,
				"only /v1/ is served")
			return
		}
		s.writeErr(w, http.StatusNotFound, dbiproto.CodeBadRequest,
			fmt.Sprintf("no such path %s", r.URL.Path))
	})

	// Ops plane (unversioned, same as every dbisim binary).
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, s.reg)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	return mux
}

// keysEndpoint serves the JSON form of a key-batch operation: a POST
// taking a KeysRequest, refused as the binary form of op would be.
func (s *Server) keysEndpoint(op byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.jsonReqs.Add(1)
		if r.Method != http.MethodPost {
			s.writeErr(w, http.StatusBadRequest, dbiproto.CodeBadRequest, "use POST")
			return
		}
		var req dbiproto.KeysRequest
		body := http.MaxBytesReader(w, r.Body, dbiproto.MaxFrame)
		if err := decodeOne(body, &req); err != nil {
			code, status := dbiproto.CodeBadRequest, http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code, status = dbiproto.CodeTooLarge, http.StatusRequestEntityTooLarge
			}
			s.writeErr(w, status, code, err.Error())
			return
		}
		if se := s.checkBatch(op, len(req.Keys)); se != nil {
			s.writeErr(w, http.StatusRequestEntityTooLarge, se.Code, se.Message)
			return
		}
		keys := make([]dbi.Key, len(req.Keys))
		for i, k := range req.Keys {
			keys[i] = dbi.Key(k)
		}
		out, dirty := s.apply(op, keys, nil, nil)
		switch op {
		case dbiproto.OpSet:
			writeJSON(w, dbiproto.SetResponse{Evicted: toU64(out)})
		case dbiproto.OpIsDirty:
			// Never nil, so JSON renders [] rather than null.
			writeJSON(w, dbiproto.DirtyResponse{Dirty: append([]bool{}, dirty...)})
		default:
			writeJSON(w, dbiproto.KeysResponse{Keys: toU64(out)})
		}
	}
}

// apply runs one key-batch operation on the tracker for either
// protocol. A set, region or flush appends its answer to out, an
// IsDirty to dirty; both are returned. Every op makes one Batcher
// call.
func (s *Server) apply(op byte, keys []dbi.Key, out []dbi.Key, dirty []bool) ([]dbi.Key, []bool) {
	switch op {
	case dbiproto.OpSet:
		n := len(out)
		out = s.tr.SetDirtyBatch(keys, out)
		s.setKeys.Add(uint64(len(keys)))
		s.evictedKeys.Add(uint64(len(out) - n))
	case dbiproto.OpIsDirty:
		dirty = s.tr.IsDirtyBatch(keys, dirty)
	case dbiproto.OpRegion:
		out = s.tr.RegionsInto(keys, out)
	case dbiproto.OpFlush:
		out = s.tr.FlushRowsInto(keys, out)
	}
	return out, dirty
}

// decodeOne decodes a request body that holds exactly one JSON value,
// white space aside: a second value or trailing bytes refuse the whole
// body, so nothing of it is applied.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return err
		}
		return errors.New("data after the request's JSON value")
	}
	return nil
}

func (s *Server) writeErr(w http.ResponseWriter, status int, code, msg string) {
	s.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(dbiproto.ErrorResponse{
		Error: dbiproto.ErrorBody{Code: code, Message: msg},
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// toU64 converts a key slice for the JSON types; never nil, so JSON
// renders [] rather than null.
func toU64(ks []dbi.Key) []uint64 {
	out := make([]uint64, len(ks))
	for i, k := range ks {
		out[i] = uint64(k)
	}
	return out
}

// checkBatch refuses, before anything is applied, a request of op
// whose answer could exceed MaxBatch keys, the most a client decodes.
// An IsDirty answer has one entry per key; each key of a set, region
// or flush can answer with a whole row, so those carry at most
// MaxBatch / rowSize keys. Without the check a set or flush that
// evicts more than the answer can carry would be applied and its
// write-back work lost with the refused answer.
func (s *Server) checkBatch(op byte, n int) *dbiproto.StatusError {
	limit := dbiproto.MaxBatch
	if op != dbiproto.OpIsDirty {
		limit /= s.rowSize
	}
	if n <= limit {
		return nil
	}
	return &dbiproto.StatusError{Code: dbiproto.CodeTooLarge,
		Message: fmt.Sprintf("batch of %d keys exceeds %d", n, limit)}
}

// --- binary batch protocol -----------------------------------------

// ServeBinary accepts binary-protocol connections until the listener
// closes. Each connection gets one goroutine; requests are answered
// in order, so clients may pipeline.
func (s *Server) ServeBinary(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.conns.Add(1)
		go s.serveConn(conn)
	}
}

// connState holds one connection's reusable buffers: the hot loop
// allocates only when an answer outgrows its scratch.
type connState struct {
	rbuf  []byte
	resp  []byte
	keys  []dbi.Key
	out   []dbi.Key
	bools []bool
	wire  []byte
	u64   []uint64
}

func (s *Server) serveConn(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64<<10)
	st := &connState{}
	for {
		f, buf, err := dbiproto.ReadFrame(br, st.rbuf)
		st.rbuf = buf
		if err != nil {
			// EOF and framing violations both end the connection;
			// best-effort error frame first if the stream was framed
			// enough to carry one.
			var se *dbiproto.StatusError
			if errors.As(err, &se) {
				s.errors.Add(1)
				_, _ = nc.Write(errFrame(nil, f, se))
			}
			return
		}
		s.binReqs.Add(1)
		st.wire = s.handleFrame(st.wire[:0], f, st)
		if _, err := nc.Write(st.wire); err != nil {
			return
		}
	}
}

// handleFrame appends the response frame for one request to w.
func (s *Server) handleFrame(w []byte, f dbiproto.Frame, st *connState) []byte {
	if f.Version != dbiproto.Version {
		s.errors.Add(1)
		return errFrame(w, f, &dbiproto.StatusError{
			Code:    dbiproto.CodeBadVersion,
			Message: fmt.Sprintf("version %d not supported", f.Version),
		})
	}
	var payload []byte
	switch f.Op {
	case dbiproto.OpPing:
		payload = []byte{dbiproto.StatusOK}
	case dbiproto.OpStats:
		body, err := json.Marshal(s.tr.Stats())
		if err != nil {
			return errFrame(w, f, &dbiproto.StatusError{Code: dbiproto.CodeInternal, Message: err.Error()})
		}
		payload = append([]byte{dbiproto.StatusOK}, body...)
	case dbiproto.OpSet, dbiproto.OpIsDirty, dbiproto.OpRegion, dbiproto.OpFlush:
		var err error
		payload, err = s.keysOp(f, st)
		if err != nil {
			s.errors.Add(1)
			var se *dbiproto.StatusError
			if !errors.As(err, &se) {
				se = &dbiproto.StatusError{Code: dbiproto.CodeInternal, Message: err.Error()}
			}
			return errFrame(w, f, se)
		}
	default:
		s.errors.Add(1)
		return errFrame(w, f, &dbiproto.StatusError{
			Code:    dbiproto.CodeBadRequest,
			Message: fmt.Sprintf("unknown opcode %#x", f.Op),
		})
	}
	return dbiproto.AppendFrame(w, dbiproto.Frame{
		Version: dbiproto.Version, Op: f.Op | dbiproto.RespBit, Seq: f.Seq, Payload: payload,
	})
}

// keysOp decodes the key batch, applies the operation and returns the
// OK payload, reusing st's scratch.
func (s *Server) keysOp(f dbiproto.Frame, st *connState) ([]byte, error) {
	var err error
	st.u64, _, err = dbiproto.DecodeKeys(f.Payload, st.u64[:0])
	if err != nil {
		return nil, err
	}
	if se := s.checkBatch(f.Op, len(st.u64)); se != nil {
		return nil, se
	}
	st.keys = st.keys[:0]
	for _, k := range st.u64 {
		st.keys = append(st.keys, dbi.Key(k))
	}
	st.out, st.bools = s.apply(f.Op, st.keys, st.out[:0], st.bools[:0])
	p := append(st.resp[:0], dbiproto.StatusOK)
	if f.Op == dbiproto.OpIsDirty {
		p = dbiproto.AppendBools(p, st.bools)
	} else {
		p = appendKeyBatch(p, st.out)
	}
	st.resp = p[:0]
	return p, nil
}

func appendKeyBatch(p []byte, ks []dbi.Key) []byte {
	p = binary.AppendUvarint(p, uint64(len(ks)))
	for _, k := range ks {
		p = binary.LittleEndian.AppendUint64(p, uint64(k))
	}
	return p
}

func errFrame(w []byte, f dbiproto.Frame, se *dbiproto.StatusError) []byte {
	payload := append([]byte{dbiproto.StatusOf(se.Code)}, se.Message...)
	return dbiproto.AppendFrame(w, dbiproto.Frame{
		Version: dbiproto.Version, Op: f.Op | dbiproto.RespBit, Seq: f.Seq, Payload: payload,
	})
}
