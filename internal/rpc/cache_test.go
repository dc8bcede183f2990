package rpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"forkwatch/internal/chain"
	"forkwatch/internal/types"
)

// modelLRU is the reference the route cache is checked against: a
// recency-ordered slice with the same rules, written for clarity.
type modelLRU struct {
	maxItems, maxBytes int
	ents               []cacheEntry // front = most recent
}

func (m *modelLRU) find(key string) int {
	for i, e := range m.ents {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (m *modelLRU) get(key string, gen types.Hash) ([]byte, bool) {
	i := m.find(key)
	if i < 0 {
		return nil, false
	}
	e := m.ents[i]
	m.ents = append(m.ents[:i], m.ents[i+1:]...)
	if e.gen != gen {
		return nil, false
	}
	m.ents = append([]cacheEntry{e}, m.ents...)
	return e.result, true
}

func (m *modelLRU) put(key string, gen types.Hash, result []byte) {
	if i := m.find(key); i >= 0 {
		m.ents = append(m.ents[:i], m.ents[i+1:]...)
	}
	if len(key)+len(result) > m.maxBytes/16 {
		return
	}
	m.ents = append([]cacheEntry{{key: key, gen: gen, result: result}}, m.ents...)
	for len(m.ents) > m.maxItems || m.bytes() > m.maxBytes {
		m.ents = m.ents[:len(m.ents)-1]
	}
}

func (m *modelLRU) bytes() int {
	n := 0
	for _, e := range m.ents {
		n += e.size()
	}
	return n
}

// TestRespCacheMatchesModel drives the route cache and the reference LRU
// through random puts, gets and generation changes, with results from a
// few bytes to past the oversize line. After every step both bounds
// hold, the byte count is the sum of what is held, and every answer
// equals the model's.
func TestRespCacheMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxItems, maxBytes := 1+rng.Intn(40), 1024+rng.Intn(8192)
		c := newRespCache(maxItems, maxBytes)
		m := &modelLRU{maxItems: maxItems, maxBytes: maxBytes}
		var gen types.Hash
		for step := 0; step < 3000; step++ {
			key := fmt.Sprintf("m%d\x00%d", rng.Intn(3), rng.Intn(60))
			switch op := rng.Intn(10); {
			case op == 0:
				gen[rng.Intn(len(gen))]++ // the head moved
			case op < 5:
				result := bytes.Repeat([]byte{byte(step)}, rng.Intn(maxBytes/12))
				c.put(key, gen, result)
				m.put(key, gen, result)
			default:
				got, ok := c.get(key, gen)
				want, wantOK := m.get(key, gen)
				if ok != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: get(%q) = %d bytes, %v; model %d bytes, %v", seed, step, key, len(got), ok, len(want), wantOK)
				}
			}
			entries, held := c.stats()
			if entries > maxItems || held > maxBytes {
				t.Fatalf("seed %d step %d: %d entries, %d bytes; bounds %d, %d", seed, step, entries, held, maxItems, maxBytes)
			}
			if entries != len(m.ents) || held != m.bytes() {
				t.Fatalf("seed %d step %d: %d entries, %d bytes; model %d, %d", seed, step, entries, held, len(m.ents), m.bytes())
			}
		}
	}
}

// TestOversizeResultAnsweredNotStored: a result over a sixteenth of the
// byte budget is served in full every time, and never held.
func TestOversizeResultAnsweredNotStored(t *testing.T) {
	_, _, srv := newTestPair(t)
	rt := srv.routes["eth"]
	rt.cache = newRespCache(4096, 16*64) // results over 64 bytes are oversize
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["0x1",true]}`
	want, _ := modelServe(t, rt.be, body, nil)
	for i := 0; i < 3; i++ {
		if _, got := postJSON(t, ts.URL+"/eth", body); !bytes.Equal(got, want) {
			t.Fatalf("call %d:\n got %s\nwant %s", i, got, want)
		}
	}
	if entries, held := rt.cache.stats(); entries != 0 || held != 0 {
		t.Fatalf("cache holds %d entries, %d bytes after oversize answers", entries, held)
	}
	reg := srv.Registry()
	if hits, misses := reg.Counter("rpc.eth.eth_getBlockByNumber.cache_hits").Value(),
		reg.Counter("rpc.eth.eth_getBlockByNumber.cache_misses").Value(); hits != 0 || misses != 3 {
		t.Fatalf("hits %d misses %d, want 0 and 3", hits, misses)
	}
	// A small answer on the same route is still stored.
	postJSON(t, ts.URL+"/eth", `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`)
	if entries, _ := rt.cache.stats(); entries != 1 {
		t.Fatalf("cache holds %d entries after a small answer, want 1", entries)
	}
}

// TestCacheGauges: rpc.<route>.cache_entries and cache_bytes exist from
// mount and report what the route's cache holds.
func TestCacheGauges(t *testing.T) {
	_, _, srv := newTestPair(t)
	snap := srv.Registry().Snapshot()
	for _, name := range []string{"rpc.eth.cache_entries", "rpc.eth.cache_bytes", "rpc.etc.cache_entries", "rpc.etc.cache_bytes"} {
		if v, ok := snap[name]; !ok || v != float64(0) {
			t.Fatalf("%s at mount = %v (present %v), want 0", name, v, ok)
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, call := range []string{
		`"eth_blockNumber","params":[]`,
		`"eth_getBlockByNumber","params":["0x1",true]`,
		`"fork_difficultyWindow","params":["0x0","0x3"]`,
	} {
		postJSON(t, ts.URL+"/eth", `{"jsonrpc":"2.0","id":1,"method":`+call+`}`)
	}
	entries, held := srv.routes["eth"].cache.stats()
	_, raw := postJSON(t, ts.URL+"/debug/metrics", "")
	var metrics map[string]any
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, name := range []string{"rpc.eth.cache_entries", "rpc.eth.cache_bytes"} {
		v, ok := metrics[name].(float64)
		if !ok {
			t.Fatalf("/debug/metrics has no number %s: %v", name, metrics[name])
		}
		got[name] = v
	}
	if entries != 3 || got["rpc.eth.cache_entries"] != 3 || got["rpc.eth.cache_bytes"] != float64(held) || held == 0 {
		t.Fatalf("gauges read %v; cache holds %d entries, %d bytes (want 3 entries)", got, entries, held)
	}
}

// TestCacheTagsHeadHash: when the head moves to a heavier sibling at the
// same height, an answer cached under the old head is no longer served.
func TestCacheTagsHeadHash(t *testing.T) {
	cfg := chain.MainnetLikeConfig()
	eth, err := chain.NewBlockchain(cfg, testGenesis())
	if err != nil {
		t.Fatal(err)
	}
	genesis := eth.Genesis()
	slow, err := eth.BuildBlock(pool1, genesis.Header.Time+60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eth.InsertBlock(slow); err != nil {
		t.Fatal(err)
	}
	// The sibling is built on a twin sharing genesis: its shorter block
	// time gives it the higher difficulty, so it wins fork choice.
	twin, err := chain.NewBlockchain(cfg, testGenesis())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := twin.BuildBlock(pool2, genesis.Header.Time+10, nil)
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(ServerConfig{Workers: 1}, NewBackend("ETH", eth))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	blockHash := func() string {
		t.Helper()
		_, raw := postJSON(t, ts.URL+"/eth", `{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["0x1",false]}`)
		var resp struct {
			Result struct {
				Hash string `json:"hash"`
			} `json:"result"`
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		return resp.Result.Hash
	}
	if got := blockHash(); got != slow.Hash().Hex() {
		t.Fatalf("block 1 = %s, want %s", got, slow.Hash().Hex())
	}
	blockHash() // now a hit
	if hits := srv.Registry().Counter("rpc.eth.eth_getBlockByNumber.cache_hits").Value(); hits != 1 {
		t.Fatalf("%d hits, want the repeated call to hit", hits)
	}

	if err := eth.InsertBlock(fast); err != nil {
		t.Fatal(err)
	}
	if eth.Head().Hash() != fast.Hash() || eth.Head().Number() != slow.Number() {
		t.Fatalf("head %s #%d, want the sibling %s at the same height", eth.Head().Hash(), eth.Head().Number(), fast.Hash())
	}
	if got := blockHash(); got != fast.Hash().Hex() {
		t.Fatalf("block 1 after the reorg = %s, want the new head %s (a stale cached answer)", got, fast.Hash().Hex())
	}
}
