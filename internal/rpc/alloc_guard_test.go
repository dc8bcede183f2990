package rpc

import (
	"context"
	"testing"
)

// TestCacheHitAllocs pins the allocations of answering one cached call,
// from the decoded request to the encoded body: the envelope is appended
// around the cached result bytes, so a hit must not re-encode them or
// build metric names.
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, _, srv := newTestPair(t)
	for _, body := range []string{
		`{"jsonrpc":"2.0","id":7,"method":"eth_blockNumber","params":[]}`,
		`{"jsonrpc":"2.0","id":7,"method":"eth_getBlockByNumber","params":["0x1",false]}`,
	} {
		reqs, errs, batch, _ := DecodeRequests([]byte(body), maxBatch)
		j := &job{ctx: context.Background(), rt: srv.routes["eth"], reqs: reqs, errs: errs, batch: batch}
		srv.process(j) // fill the cache
		// The cache key and the body.
		if allocs := testing.AllocsPerRun(200, func() { srv.process(j) }); allocs > 2 {
			t.Errorf("cache hit for %s allocates %.1f/op, want <= 2", body, allocs)
		}
	}
}
