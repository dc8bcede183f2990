package rpc

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzDecodeRequest throws arbitrary bytes at the JSON-RPC request
// decoder: it must never panic, and whatever it accepts must satisfy the
// decoder's own invariants (version pinned, method non-empty, errs slice
// aligned with reqs, notifications id-free).
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`,
		`{"jsonrpc":"2.0","id":"abc","method":"eth_getBlockByNumber","params":["0x1",true]}`,
		`{"jsonrpc":"2.0","method":"notify_me"}`,
		`[{"jsonrpc":"2.0","id":1,"method":"a"},{"jsonrpc":"2.0","id":2,"method":"b"}]`,
		`[]`,
		`[1,2,3]`,
		`{"jsonrpc":"1.0","id":1,"method":"x"}`,
		`{"jsonrpc":"2.0","id":{},"method":"x"}`,
		`{"jsonrpc":"2.0","id":1,"method":"x","params":{"a":1}}`,
		`{"jsonrpc":"2.0","id":1,"method":"x","params":null}`,
		`{"jsonrpc":"2.0","id":1,`,
		`null`,
		``,
		"\x00\x01\x02",
		`{"jsonrpc":"2.0","id":1,"method":"x","extra":true}`,
		`{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["0x10zz",false]}`,
		`{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["0x 5",false]}`,
		`{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["0x1_0",false]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		reqs, errs, isBatch, topErr := DecodeRequests(body, 64)
		if topErr != nil {
			if len(reqs) != 0 {
				t.Fatalf("top-level error must not come with requests: %v", topErr)
			}
			return
		}
		if len(errs) != len(reqs) {
			t.Fatalf("errs (%d) misaligned with reqs (%d)", len(errs), len(reqs))
		}
		if !isBatch && len(reqs) != 1 {
			t.Fatalf("non-batch decoded to %d requests", len(reqs))
		}
		for i, req := range reqs {
			if errs[i] != nil {
				if errs[i].Code == 0 || errs[i].Message == "" {
					t.Fatalf("entry %d: untyped decode error %+v", i, errs[i])
				}
				continue
			}
			if req.JSONRPC != Version {
				t.Fatalf("entry %d: accepted version %q", i, req.JSONRPC)
			}
			if req.Method == "" {
				t.Fatalf("entry %d: accepted empty method", i)
			}
			if len(req.ID) > 0 && !json.Valid(req.ID) {
				t.Fatalf("entry %d: invalid id token %q", i, req.ID)
			}
			// The cache key must be deterministic and never panic.
			if k1, k2 := req.CacheKey(), req.CacheKey(); k1 != k2 {
				t.Fatalf("entry %d: unstable cache key", i)
			}
			// A quantity parses only as 0x and hex digits, to the value
			// they spell.
			for _, p := range req.Params {
				var s string
				v, qerr := parseQuantity(p, "q")
				if qerr != nil || json.Unmarshal(p, &s) != nil {
					continue
				}
				if digits := strings.TrimLeft(strings.ToLower(s[2:]), "0"); encUint(v) != "0x"+digits && (v != 0 || digits != "") {
					t.Fatalf("entry %d: quantity %q parsed as %d", i, s, v)
				}
			}
		}
	})
}
