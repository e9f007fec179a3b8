package dbiserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"dbisim/internal/telemetry"
	"dbisim/pkg/dbi"
	"dbisim/pkg/dbiproto"
)

// jsonEndpoints are the key-carrying v1 endpoints, each with a fresh
// value of its response type.
var jsonEndpoints = []struct {
	path string
	resp func() any
}{
	{"/v1/set", func() any { return &dbiproto.SetResponse{} }},
	{"/v1/dirty", func() any { return &dbiproto.DirtyResponse{} }},
	{"/v1/region", func() any { return &dbiproto.KeysResponse{} }},
	{"/v1/flush", func() any { return &dbiproto.KeysResponse{} }},
}

// decodeStrict decodes exactly one JSON document into v, refusing
// unknown fields and trailing data.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("data after the document")
	}
	return nil
}

// FuzzJSONHandlers POSTs arbitrary bodies to the key-carrying v1
// endpoints through Server.Handler. Every answer must be 200 for a
// body of exactly one JSON value, with a body that decodes as the
// endpoint's response, or 400 bad_request or 413 too_large in the
// error envelope (PROTOCOL.md's table); a refused request must leave
// the tracker's dirty keys as they were.
func FuzzJSONHandlers(f *testing.F) {
	for _, body := range []string{ // README's curl bodies, and garbage
		`{"keys":[1,2,3,130]}`, `{"keys":[2,4]}`, `{"keys":[0]}`, `not json`,
		`{"keys":[7]}{"keys":[9]}`,
	} {
		for ep := range jsonEndpoints {
			f.Add(uint8(ep), []byte(body))
		}
	}
	tr, err := dbi.NewSharded(2, dbi.WithRows(64), dbi.WithRowSize(64))
	if err != nil {
		f.Fatal(err)
	}
	h := New(tr, telemetry.NewRegistry()).Handler()
	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		e := jsonEndpoints[int(ep)%len(jsonEndpoints)]
		before := tr.Stats().DirtyKeys
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, e.path, bytes.NewReader(body)))
		out := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			if !json.Valid(body) {
				t.Fatalf("%s %q: 200 for a body that is not exactly one JSON value", e.path, body)
			}
			if err := decodeStrict(out, e.resp()); err != nil {
				t.Fatalf("%s %q: 200 with body %q: %v", e.path, body, out, err)
			}
			return
		}
		want := map[int]string{
			http.StatusBadRequest:            dbiproto.CodeBadRequest,
			http.StatusRequestEntityTooLarge: dbiproto.CodeTooLarge,
		}[rec.Code]
		if want == "" {
			t.Fatalf("%s %q: status %d, want 200, 400 or 413", e.path, body, rec.Code)
		}
		var er dbiproto.ErrorResponse
		if err := decodeStrict(out, &er); err != nil || er.Error.Code != want || er.Error.Message == "" {
			t.Fatalf("%s %q: status %d with body %q, want a %s error envelope (%v)",
				e.path, body, rec.Code, out, want, err)
		}
		if after := tr.Stats().DirtyKeys; after != before {
			t.Fatalf("%s %q: refused request moved dirty keys %d -> %d", e.path, body, before, after)
		}
	})
}
