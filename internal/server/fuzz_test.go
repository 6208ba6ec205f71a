package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzStreamOps throws arbitrary bytes at POST /v1/stream, the service's
// request-decoding surface: the JSON-lines decoder and parseOp. One small
// server, driven in process through its handler, serves every input. For
// each input:
//
//   - the handler never panics;
//   - a body that does not decode is refused with a 4xx and an error body;
//   - otherwise the response is one Result line per op, each with a known
//     status, closed by a StreamSummary that counts every op exactly once;
//   - after the stream returns, every op it admitted has waited out its
//     terminal outcome, so the server's ledger conserves.
func FuzzStreamOps(f *testing.F) {
	f.Add([]byte(`{"op":"r","off":0,"len":4096}`))
	f.Add([]byte("{\"op\":\"w\",\"off\":8192,\"seq\":7}\n{\"op\":\"read\",\"off\":4096,\"tenant\":2,\"deadline_us\":0.5}\n"))
	f.Add([]byte(`{"op":"x"}`))
	f.Add([]byte(`{"off":-1}{"len":-5}{"tenant":-1}{"deadline_us":-1}`))
	f.Add([]byte(`{"off":9223372036854775000,"len":4096}`))
	f.Add([]byte(`{"off":0,"len":9000,"deadline_us":1e300}`))
	f.Add([]byte(`{"off":0`))
	f.Add([]byte(`[1,2]`))
	f.Add([]byte(""))
	s, err := New(Config{Pool: testPoolCfg(3)})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Shutdown() })
	h := s.Handler()
	statuses := map[string]bool{"invalid": true, "completed": true, "shed": true,
		"expired": true, "failed": true, "throttled": true}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stream", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			dec := json.NewDecoder(rec.Body)
			lines := 0
			var sum StreamSummary
			for {
				var line struct {
					Result
					StreamSummary
				}
				if err := dec.Decode(&line); errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					t.Fatalf("response line %d: %v", lines+1, err)
				}
				if sum.Summary {
					t.Fatal("response continues past its summary")
				}
				if line.Summary {
					sum = line.StreamSummary
					continue
				}
				if !statuses[line.Status] {
					t.Fatalf("response line %d: status %q", lines+1, line.Status)
				}
				lines++
			}
			n := sum.Invalid + sum.Completed + sum.Shed + sum.Expired + sum.Failed + sum.Throttled
			if !sum.Summary || sum.Ops != lines || n != lines {
				t.Fatalf("summary %+v after %d result lines", sum, lines)
			}
		case http.StatusBadRequest:
			var e errorBody
			if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("400 without an error body (%v)", err)
			}
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var st Stats
		if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if err := st.Ledger().Check(); err != nil || st.Backlog != 0 {
			t.Fatalf("after the stream: backlog %d, ledger %v", st.Backlog, err)
		}
	})
}
