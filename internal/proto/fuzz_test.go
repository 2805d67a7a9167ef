package proto

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeRequest throws arbitrary bytes at the request decoder —
// the first thing the server runs on every message a client sends.
// Invariants: no panic, errors only for malformed/unknown input, and
// any accepted request survives a marshal/decode round trip intact
// (the dispatcher must see exactly what the client sent).
func FuzzDecodeRequest(f *testing.F) {
	// Seed with the protocol's real traffic: one of each request the
	// client library produces, plus near-miss malformed variants.
	seeds := []string{
		`{"type":"breakpoint","action":"add","filename":"server_test.go","line":38,"condition":"count == 2","token":"1"}`,
		`{"type":"breakpoint","action":"remove","filename":"server_test.go","line":38,"token":"2"}`,
		`{"type":"breakpoint","action":"list","token":"3"}`,
		`{"type":"breakpoint","action":"clear","token":"4"}`,
		`{"type":"command","command":"continue","token":"5"}`,
		`{"type":"command","command":"reverse-step","token":"6"}`,
		`{"type":"command","command":"reverse-continue","token":"6"}`,
		`{"type":"command","command":"pause","token":"7"}`,
		`{"type":"evaluate","instance":"Counter","expression":"count + 10","token":"8"}`,
		`{"type":"get-value","path":"Counter.count","token":"9"}`,
		`{"type":"set-value","path":"Counter.en","value":1,"token":"10"}`,
		`{"type":"info","topic":"status","token":"11"}`,
		`{"type":"info","topic":"lines","filename":"adder.go","token":"12"}`,
		`{"type":"watch","action":"add","instance":"Counter","expression":"count","token":"13"}`,
		`{"type":"watch","action":"remove","watch_id":1,"token":"14"}`,
		`{"type":"session","action":"list","token":"15"}`,
		`{"type":"session","action":"release","token":"16"}`,
		`{"type":"session","action":"claim","token":"17"}`,
		`{"type":"runtimes","action":"list","token":"18"}`,
		`{"type":"runtimes","action":"launch","spec":{"name":"c0","kind":"sim","design":"counter","debug":true},"token":"19"}`,
		`{"type":"runtimes","action":"launch","spec":{"kind":"replay","vcd":"trace.vcd","symtab":"trace.symtab"},"token":"20"}`,
		`{"type":"runtimes","action":"evict","runtime":"rt-3","token":"21"}`,
		`{"type":"runtimes","action":"launch","spec":null,"token":"22"}`,
		`{"type":"runtimes","action":"launch","spec":{"kind":42}}`,
		`{"type":"warp"}`,
		`{"token":"18"}`,
		`{"type":42}`,
		`{"type":"info","line":"not-a-number"}`,
		`{`,
		``,
		`null`,
		`[]`,
		`"info"`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			if req != nil {
				t.Fatalf("error %v with non-nil request %+v", err, req)
			}
			return
		}
		if req.Type == "" || !knownRequestTypes[req.Type] {
			t.Fatalf("decoder accepted type %q", req.Type)
		}
		// Round trip: what the dispatcher replies to must re-encode to
		// an equivalent request.
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		back, err := DecodeRequest(raw)
		if err != nil {
			t.Fatalf("re-decode of %s failed: %v", raw, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("round trip changed request: %+v != %+v", req, back)
		}
	})
}
