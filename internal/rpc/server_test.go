package rpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
	"forkwatch/internal/db/diskdb"
	"forkwatch/internal/db/diskdb/faultfile"
	"forkwatch/internal/live/feed"
	"forkwatch/internal/types"
)

var (
	alice = types.HexToAddress("0xa11ce")
	bob   = types.HexToAddress("0xb0b")
	pool1 = types.HexToAddress("0x9001")
	pool2 = types.HexToAddress("0x9002")
)

func testGenesis() *chain.Genesis {
	return &chain.Genesis{
		Difficulty: big.NewInt(131072 * 4),
		Time:       1_000_000,
		Alloc: map[types.Address]*big.Int{
			alice: new(big.Int).Mul(big.NewInt(1000), chain.Ether),
		},
	}
}

func transfer(nonce uint64, from, to types.Address, wei int64, chainID uint64) *chain.Transaction {
	return chain.NewTransaction(nonce, &to, big.NewInt(wei), 21_000, big.NewInt(1), nil).Sign(from, chainID)
}

func mine(t *testing.T, bc *chain.Blockchain, coinbase types.Address, txs ...*chain.Transaction) *chain.Block {
	t.Helper()
	b, err := bc.BuildBlock(coinbase, bc.Head().Header.Time+13, txs)
	if err != nil {
		t.Fatalf("BuildBlock: %v", err)
	}
	if err := bc.InsertBlock(b); err != nil {
		t.Fatalf("InsertBlock: %v", err)
	}
	return b
}

// newTestPair builds two paired chains (the two partitions) sharing a
// genesis and a replayed transaction, plus a server mounting both.
func newTestPair(t *testing.T) (*chain.Blockchain, *chain.Blockchain, *Server) {
	t.Helper()
	cfg := chain.MainnetLikeConfig()
	eth, err := chain.NewBlockchain(cfg, testGenesis())
	if err != nil {
		t.Fatal(err)
	}
	etc, err := chain.NewBlockchain(cfg, testGenesis())
	if err != nil {
		t.Fatal(err)
	}
	// Pre-EIP155 signatures (chainID 0) are valid on both partitions —
	// exactly the replay condition the paper measured.
	const chainID = 0
	// The same signed transfer lands on both chains: an O5 echo.
	echoTx := transfer(0, alice, bob, 7_000, chainID)
	mine(t, eth, pool1, echoTx)
	mine(t, eth, pool1, transfer(1, alice, bob, 1_000, chainID))
	mine(t, eth, pool2)
	mine(t, etc, pool2, echoTx)

	beEth := NewBackend("ETH", eth)
	beEtc := NewBackend("ETC", etc)
	beEth.AddPeer(beEtc)
	beEtc.AddPeer(beEth)
	srv := NewServer(ServerConfig{Workers: 4}, beEth, beEtc)
	t.Cleanup(srv.Close)
	return eth, etc, srv
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func hexToUint(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
	if err != nil {
		t.Fatalf("bad hex quantity %q: %v", s, err)
	}
	return v
}

func TestEndToEndMethods(t *testing.T) {
	eth, _, srv := newTestPair(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := newFC(t, FailoverConfig{Endpoints: []string{ts.URL + "/eth"}})

	var headHex string
	if _, err := cl.Call(&headHex, "eth_blockNumber"); err != nil {
		t.Fatalf("eth_blockNumber: %v", err)
	}
	if got := hexToUint(t, headHex); got != 3 {
		t.Fatalf("blockNumber = %d, want 3", got)
	}

	var blk map[string]any
	if _, err := cl.Call(&blk, "eth_getBlockByNumber", "0x1", true); err != nil {
		t.Fatalf("eth_getBlockByNumber: %v", err)
	}
	if blk["number"] != "0x1" {
		t.Fatalf("block number field = %v", blk["number"])
	}
	txs := blk["transactions"].([]any)
	if len(txs) != 1 {
		t.Fatalf("block 1 carries %d txs, want 1", len(txs))
	}
	txObj := txs[0].(map[string]any)
	txHash := txObj["hash"].(string)

	var byHash map[string]any
	if _, err := cl.Call(&byHash, "eth_getBlockByHash", blk["hash"], false); err != nil {
		t.Fatalf("eth_getBlockByHash: %v", err)
	}
	if byHash["hash"] != blk["hash"] {
		t.Fatalf("byHash mismatch: %v vs %v", byHash["hash"], blk["hash"])
	}
	if _, ok := byHash["transactions"].([]any)[0].(string); !ok {
		t.Fatal("fullTransactions=false should return hash strings")
	}

	var tx map[string]any
	if _, err := cl.Call(&tx, "eth_getTransactionByHash", txHash); err != nil {
		t.Fatalf("eth_getTransactionByHash: %v", err)
	}
	if tx["blockNumber"] != "0x1" || tx["hash"] != txHash {
		t.Fatalf("tx lookup mismatch: %v", tx)
	}

	var rec map[string]any
	if _, err := cl.Call(&rec, "eth_getTransactionReceipt", txHash); err != nil {
		t.Fatalf("eth_getTransactionReceipt: %v", err)
	}
	if rec["transactionHash"] != txHash || rec["status"] != "0x1" {
		t.Fatalf("receipt mismatch: %v", rec)
	}

	var missing *map[string]any
	if _, err := cl.Call(&missing, "eth_getTransactionByHash", types.Hash{0xde, 0xad}.Hex()); err != nil {
		t.Fatalf("absent tx should be null result, got %v", err)
	}
	if missing != nil {
		t.Fatalf("absent tx = %v, want null", missing)
	}

	var bal string
	if _, err := cl.Call(&bal, "eth_getBalance", bob.Hex(), "latest"); err != nil {
		t.Fatalf("eth_getBalance: %v", err)
	}
	if hexToUint(t, bal) != 8_000 {
		t.Fatalf("bob balance = %s, want 0x1f40", bal)
	}
	// At block 1 only the first transfer has landed.
	if _, err := cl.Call(&bal, "eth_getBalance", bob.Hex(), "0x1"); err != nil {
		t.Fatalf("eth_getBalance at block: %v", err)
	}
	if hexToUint(t, bal) != 7_000 {
		t.Fatalf("bob balance at 1 = %s, want 0x1b58", bal)
	}

	var nonce string
	if _, err := cl.Call(&nonce, "eth_getTransactionCount", alice.Hex(), "latest"); err != nil {
		t.Fatalf("eth_getTransactionCount: %v", err)
	}
	if hexToUint(t, nonce) != 2 {
		t.Fatalf("alice nonce = %s, want 0x2", nonce)
	}

	var window struct {
		Points []struct{ Number, Difficulty string } `json:"points"`
	}
	if _, err := cl.Call(&window, "fork_difficultyWindow", "0x0", "0x3"); err != nil {
		t.Fatalf("fork_difficultyWindow: %v", err)
	}
	if len(window.Points) != 4 {
		t.Fatalf("window points = %d, want 4", len(window.Points))
	}

	var echoes struct {
		Echoes []struct{ Hash, BlockNumber, PeerBlockNumber string } `json:"echoes"`
	}
	if _, err := cl.Call(&echoes, "fork_echoCandidates", "0x1", "0x3"); err != nil {
		t.Fatalf("fork_echoCandidates: %v", err)
	}
	if len(echoes.Echoes) != 1 || echoes.Echoes[0].Hash != txHash {
		t.Fatalf("echo join = %+v, want the replayed tx %s", echoes.Echoes, txHash)
	}

	var pools struct {
		TotalBlocks int `json:"totalBlocks"`
		Pools       []struct {
			Miner  string  `json:"miner"`
			Blocks int     `json:"blocks"`
			Share  float64 `json:"share"`
		} `json:"pools"`
	}
	if _, err := cl.Call(&pools, "fork_poolShares", "0x1", "0x3"); err != nil {
		t.Fatalf("fork_poolShares: %v", err)
	}
	if pools.TotalBlocks != 3 || len(pools.Pools) != 2 {
		t.Fatalf("pool shares = %+v", pools)
	}
	if pools.Pools[0].Miner != pool1.Hex() || pools.Pools[0].Blocks != 2 {
		t.Fatalf("dominant pool = %+v, want %s with 2 blocks", pools.Pools[0], pool1.Hex())
	}

	// The second chain serves independently.
	cl2 := newFC(t, FailoverConfig{Endpoints: []string{ts.URL + "/etc"}})
	if _, err := cl2.Call(&headHex, "eth_blockNumber"); err != nil {
		t.Fatalf("etc eth_blockNumber: %v", err)
	}
	if hexToUint(t, headHex) != 1 {
		t.Fatalf("etc head = %s, want 0x1", headHex)
	}

	_ = eth
}

func TestBatchAndNotifications(t *testing.T) {
	_, _, srv := newTestPair(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `[
		{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]},
		{"jsonrpc":"2.0","method":"eth_blockNumber","params":[]},
		{"jsonrpc":"2.0","id":"two","method":"nope"},
		{"bogus":true}
	]`
	resp, raw := postJSON(t, ts.URL+"/eth", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch HTTP status = %d", resp.StatusCode)
	}
	var out []Response
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("batch response is not an array: %v\n%s", err, raw)
	}
	// Notification excluded: 3 responses for 4 calls.
	if len(out) != 3 {
		t.Fatalf("batch replies = %d, want 3 (notification skipped)", len(out))
	}
	if out[0].Error != nil || out[0].Result == nil {
		t.Fatalf("call 1 should succeed: %+v", out[0])
	}
	if out[1].Error == nil || out[1].Error.Code != ErrCodeMethodNotFound {
		t.Fatalf("call 3 should be method-not-found: %+v", out[1])
	}
	if out[2].Error == nil || out[2].Error.Code != ErrCodeInvalidRequest {
		t.Fatalf("call 4 should be invalid-request: %+v", out[2])
	}

	// All-notification batches produce 204 No Content.
	resp, _ = postJSON(t, ts.URL+"/eth", `[{"jsonrpc":"2.0","method":"eth_blockNumber","params":[]}]`)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("notification-only batch status = %d, want 204", resp.StatusCode)
	}
}

func TestProtocolErrors(t *testing.T) {
	_, _, srv := newTestPair(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL + "/eth"

	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"syntax", `{"jsonrpc":"2.0","id":1,`, ErrCodeParse},
		{"empty body", ``, ErrCodeInvalidRequest},
		{"empty batch", `[]`, ErrCodeInvalidRequest},
		{"wrong version", `{"jsonrpc":"1.0","id":1,"method":"eth_blockNumber"}`, ErrCodeInvalidRequest},
		{"missing method", `{"jsonrpc":"2.0","id":1}`, ErrCodeInvalidRequest},
		{"object params", `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":{}}`, ErrCodeInvalidParams},
		{"object id", `{"jsonrpc":"2.0","id":{},"method":"eth_blockNumber"}`, ErrCodeInvalidRequest},
		{"unknown method", `{"jsonrpc":"2.0","id":1,"method":"eth_mystery","params":[]}`, ErrCodeMethodNotFound},
		{"bad hash param", `{"jsonrpc":"2.0","id":1,"method":"eth_getTransactionByHash","params":["0x12"]}`, ErrCodeInvalidParams},
		{"param count", `{"jsonrpc":"2.0","id":1,"method":"eth_getBalance","params":[]}`, ErrCodeInvalidParams},
		{"inverted window", `{"jsonrpc":"2.0","id":1,"method":"fork_poolShares","params":["0x5","0x1"]}`, ErrCodeInvalidParams},
		{"trailing junk in quantity", `{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["0x10zz",false]}`, ErrCodeInvalidParams},
		{"space in quantity", `{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["0x 5",false]}`, ErrCodeInvalidParams},
		{"underscore in quantity", `{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["0x1_0",false]}`, ErrCodeInvalidParams},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, url, tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("HTTP status = %d, want 200 with JSON-RPC error", resp.StatusCode)
			}
			var out Response
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("bad response: %v\n%s", err, raw)
			}
			if out.Error == nil || out.Error.Code != tc.wantCode {
				t.Fatalf("error = %+v, want code %d", out.Error, tc.wantCode)
			}
		})
	}

	// Non-POST and unknown routes are plain HTTP errors.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/btc", `{}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown chain status = %d, want 404", resp.StatusCode)
	}
}

func TestCacheInvalidationOnHeadAdvance(t *testing.T) {
	eth, _, srv := newTestPair(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := newFC(t, FailoverConfig{Endpoints: []string{ts.URL + "/eth"}})

	var first, second, third string
	if _, err := cl.Call(&first, "eth_blockNumber"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Call(&second, "eth_blockNumber"); err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("repeated call disagrees: %s vs %s", first, second)
	}
	hits := srv.Registry().Counter("rpc.eth.eth_blockNumber.cache_hits").Value()
	if hits == 0 {
		t.Fatal("second identical call should hit the response cache")
	}

	mine(t, eth, pool1)
	if _, err := cl.Call(&third, "eth_blockNumber"); err != nil {
		t.Fatal(err)
	}
	if hexToUint(t, third) != hexToUint(t, first)+1 {
		t.Fatalf("post-advance blockNumber = %s, want %s+1 (stale cache?)", third, first)
	}
}

func TestRateLimiting(t *testing.T) {
	eth, err := chain.NewBlockchain(chain.MainnetLikeConfig(), testGenesis())
	if err != nil {
		t.Fatal(err)
	}
	// One token a second: the bucket holds two, and the three requests
	// below arrive well inside a second.
	srv := NewServer(ServerConfig{Workers: 2, RatePerSec: 1}, NewBackend("ETH", eth))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`
	for i := 0; i < 2; i++ {
		resp, _ := postJSON(t, ts.URL+"/eth", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status = %d, want 200", i, resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/eth", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
}

func TestQueueBackpressure(t *testing.T) {
	eth, err := chain.NewBlockchain(chain.MainnetLikeConfig(), testGenesis())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{Workers: 1, QueueDepth: 1, RequestTimeout: 300 * time.Millisecond}, NewBackend("ETH", eth))
	// Stop the workers: jobs queue but never drain, so the queue slot
	// stays occupied and the next request must be shed.
	srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Occupies the single queue slot, then times out with a JSON-RPC
		// timeout error (the transport must never hang).
		resp, raw := postJSON(t, ts.URL+"/eth", body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("queued request status = %d", resp.StatusCode)
			return
		}
		var out Response
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Errorf("queued request response: %v", err)
			return
		}
		if out.Error == nil || out.Error.Code != ErrCodeTimeout {
			t.Errorf("queued request error = %+v, want timeout", out.Error)
		}
	}()
	time.Sleep(100 * time.Millisecond) // let the first request take the slot

	resp, _ := postJSON(t, ts.URL+"/eth", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response must carry Retry-After")
	}
	wg.Wait()
}

// TestNoStaleHeadUnderConcurrentMining is the staleness invariant test:
// 50 client goroutines hammer eth_blockNumber (and friends) while the
// head keeps advancing. Any response observed after block N commits must
// report a head >= the number read before the request was issued — the
// generation-tagged cache may never serve a pre-advance answer to a
// post-advance request.
func TestNoStaleHeadUnderConcurrentMining(t *testing.T) {
	cfg := chain.MainnetLikeConfig()
	eth, err := chain.NewBlockchain(cfg, testGenesis())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{Workers: 8, QueueDepth: 4096, RequestTimeout: 10 * time.Second}, NewBackend("ETH", eth))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const (
		clients = 50
		rounds  = 20
		blocks  = 30
	)
	stop := make(chan struct{})
	var minerWG sync.WaitGroup
	minerWG.Add(1)
	go func() {
		defer minerWG.Done()
		for i := 0; i < blocks; i++ {
			b, err := eth.BuildBlock(pool1, eth.Head().Header.Time+13, nil)
			if err != nil {
				t.Errorf("BuildBlock: %v", err)
				return
			}
			if err := eth.InsertBlock(b); err != nil {
				t.Errorf("InsertBlock: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()

	cl := newFC(t, FailoverConfig{Endpoints: []string{ts.URL + "/eth"}})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Head number observed BEFORE issuing the request: the
				// response may never be older than this.
				before := eth.Head().Number()
				var hex string
				if _, err := cl.Call(&hex, "eth_blockNumber"); err != nil {
					t.Errorf("eth_blockNumber: %v", err)
					return
				}
				got, err := strconv.ParseUint(strings.TrimPrefix(hex, "0x"), 16, 64)
				if err != nil {
					t.Errorf("bad quantity %q", hex)
					return
				}
				if got < before {
					t.Errorf("STALE response: blockNumber=%d but head was already %d", got, before)
					return
				}
				// Mix in a cached-window method to churn the caches.
				if i%5 == 0 {
					var out map[string]any
					if _, err := cl.Call(&out, "fork_poolShares", "0x0", fmt.Sprintf("0x%x", before)); err != nil {
						t.Errorf("fork_poolShares: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	minerWG.Wait()
	<-stop
}

// TestChaosFaultyStorage hammers a server whose chain sits on a store
// whose medium fails 20% of its reads: every single response must be
// well-formed JSON-RPC (result or typed error object), with zero panics
// and zero hung requests.
func TestChaosFaultyStorage(t *testing.T) {
	ffs := faultfile.Wrap(dbfs.NewMemFS(), faultfile.Faults{
		Seed:        42,
		ReadErrRate: 0.20,
	})
	ffs.SetEnabled(false) // build the fixture cleanly
	store, err := diskdb.Open(ffs, diskdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := chain.MainnetLikeConfig()
	eth, err := chain.NewBlockchainWithDB(cfg, testGenesis(), store)
	if err != nil {
		t.Fatal(err)
	}
	var txHashes []string
	for i := 0; i < 10; i++ {
		tx := transfer(uint64(i), alice, bob, 1_000, 0)
		mine(t, eth, pool1, tx)
		txHashes = append(txHashes, tx.Hash().Hex())
	}
	ffs.SetEnabled(true) // chaos on

	srv := NewServer(ServerConfig{Workers: 4, QueueDepth: 1024, RequestTimeout: 5 * time.Second}, NewBackend("ETH", eth))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bodies := []string{
		`{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`,
		`{"jsonrpc":"2.0","id":2,"method":"eth_getBlockByNumber","params":["0x5",true]}`,
		fmt.Sprintf(`{"jsonrpc":"2.0","id":3,"method":"eth_getTransactionByHash","params":[%q]}`, txHashes[3]),
		fmt.Sprintf(`{"jsonrpc":"2.0","id":4,"method":"eth_getTransactionReceipt","params":[%q]}`, txHashes[7]),
		fmt.Sprintf(`{"jsonrpc":"2.0","id":5,"method":"eth_getBalance","params":[%q,"latest"]}`, bob.Hex()),
		`{"jsonrpc":"2.0","id":6,"method":"fork_poolShares","params":["0x0","0xa"]}`,
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var storageErrs, successes int
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Timeout: 8 * time.Second}
			for i := 0; i < 40; i++ {
				body := bodies[(c+i)%len(bodies)]
				resp, err := hc.Post(ts.URL+"/eth", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("transport error (hung request?): %v", err)
					return
				}
				var buf bytes.Buffer
				_, _ = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					continue // shed load is an acceptable outcome
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("HTTP %d under chaos: %s", resp.StatusCode, buf.String())
					return
				}
				var out Response
				if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
					t.Errorf("malformed response under chaos: %v\n%s", err, buf.String())
					return
				}
				if out.JSONRPC != Version {
					t.Errorf("response missing jsonrpc version: %s", buf.String())
					return
				}
				hasResult := out.Result != nil
				hasError := out.Error != nil
				if hasResult == hasError && !hasResult {
					// Null results (absent tx/block) marshal with neither
					// member set in our Response struct; re-check raw.
					if !bytes.Contains(buf.Bytes(), []byte(`"result"`)) &&
						!bytes.Contains(buf.Bytes(), []byte(`"error"`)) {
						t.Errorf("response carries neither result nor error: %s", buf.String())
						return
					}
				}
				mu.Lock()
				if hasError {
					switch out.Error.Code {
					case ErrCodeStorage, ErrCodeTimeout, ErrCodeNotFound, ErrCodeInternal:
						storageErrs++
					default:
						mu.Unlock()
						t.Errorf("unexpected error code %d under chaos: %s", out.Error.Code, out.Error.Message)
						return
					}
				} else {
					successes++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	t.Logf("chaos run: %d successes, %d typed storage/timeout errors", successes, storageErrs)
	if storageErrs == 0 {
		t.Error("20% read faults should surface at least one typed storage error")
	}
	if successes == 0 {
		t.Error("some requests should still succeed under 20% faults")
	}
}

// TestBodySizeBound: a body of maxBodyBytes is read and answered, one
// byte more is refused with 413 and counted as oversized.
func TestBodySizeBound(t *testing.T) {
	_, _, srv := newTestPair(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	call := `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`
	oversized := srv.Registry().Counter("rpc.eth.oversized")

	fits := call + strings.Repeat(" ", maxBodyBytes-len(call))
	resp, raw := postJSON(t, ts.URL+"/eth", fits)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"result":"0x3"`) || oversized.Value() != 0 {
		t.Fatalf("%d-byte body: status %d, body %s, oversized %d", len(fits), resp.StatusCode, raw, oversized.Value())
	}
	resp, _ = postJSON(t, ts.URL+"/eth", fits+" ")
	if resp.StatusCode != http.StatusRequestEntityTooLarge || oversized.Value() != 1 {
		t.Fatalf("%d-byte body: status %d, oversized %d; want 413 and 1", len(fits)+1, resp.StatusCode, oversized.Value())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, _, srv := newTestPair(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Generate a little traffic first.
	postJSON(t, ts.URL+"/eth", `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`)

	resp, raw := postJSON(t, ts.URL+"/debug/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	for _, key := range []string{
		"rpc.eth.eth_blockNumber.requests",
		"rpc.eth.eth_blockNumber.latency",
		"storage.eth.reads",
		"storage.etc.reads",
		"live.subscribers",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("metrics snapshot missing %q", key)
		}
	}
}

// TestRefusalCountersFromMount: a route's refusal counters exist at 0 as
// soon as it is mounted, and a refusal moves the handle the route resolved
// then, so the overload paths never look a name up.
func TestRefusalCountersFromMount(t *testing.T) {
	eth, err := chain.NewBlockchain(chain.MainnetLikeConfig(), testGenesis())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{Workers: 1}, NewBackend("ETH", eth))
	defer srv.Close()
	snap := srv.Registry().Snapshot()
	for _, reason := range []string{"drained", "ratelimited", "oversized", "malformed", "shed", "timeouts", "breaker_shed"} {
		if v, ok := snap["rpc.eth."+reason]; !ok || v != uint64(0) {
			t.Errorf("rpc.eth.%s at mount = %v (present %v), want 0", reason, v, ok)
		}
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	postJSON(t, ts.URL+"/eth", `{"jsonrpc":`)
	srv.routes["eth"].refused.malformed.Inc()
	if got := srv.Registry().Counter("rpc.eth.malformed").Value(); got != 2 {
		t.Fatalf("rpc.eth.malformed = %d after one malformed body and one direct Inc, want 2", got)
	}
}

// TestDuplicateRouteRefused: two backends on one route (names are
// lowercased) are a bug NewServer refuses, naming the route.
func TestDuplicateRouteRefused(t *testing.T) {
	eth, err := chain.NewBlockchain(chain.MainnetLikeConfig(), testGenesis())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "/eth") {
			t.Fatalf("panic %q, want one naming /eth", msg)
		}
	}()
	srv := NewServer(ServerConfig{Workers: 1}, NewBackend("ETH", eth), NewBackend("eth", eth))
	srv.Close()
	t.Fatal("NewServer mounted /eth twice")
}

// TestBackendStaleness: a staleness source set on a Backend tags that
// route's responses, its /readyz entry and its /<route>/stream lines, and
// no other route's.
func TestBackendStaleness(t *testing.T) {
	_, _, srv := newTestPair(t)
	be := srv.routes["eth"].be
	be.SetStaleness(func() (uint64, bool) { return 12, true })
	f := feed.NewFeed(srv.Registry(), 8)
	be.SetLive(&LiveSource{Feed: f})
	f.Publish(feed.Event{Kind: feed.KindHead, Head: &feed.HeadEvent{Chain: "ETH", Number: 1, Difficulty: "1"}})
	f.Publish(feed.Event{Kind: feed.KindEOF})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for route, want := range map[string]string{"eth": "12", "etc": "none"} {
		_, raw := postJSON(t, ts.URL+"/"+route, `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`)
		var resp struct{ Staleness *uint64 }
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("%s: %v: %s", route, err, raw)
		}
		got := "none"
		if resp.Staleness != nil {
			got = strconv.FormatUint(*resp.Staleness, 10)
		}
		if got != want {
			t.Errorf("/%s response staleness %s, want %s", route, got, want)
		}
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd Readiness
	err = json.NewDecoder(resp.Body).Decode(&rd)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || rd.Ready ||
		rd.Routes["eth"] != (routeHealth{Degraded: true, Staleness: 12}) || rd.Routes["etc"] != (routeHealth{}) {
		t.Errorf("/readyz %d %+v, want 503 with eth degraded at 12 and etc healthy", resp.StatusCode, rd)
	}

	resp, err = http.Get(ts.URL + "/eth/stream?stream=events&cursor=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 3 {
		t.Fatalf("stream lines %q, want a header, the head and EOF", lines)
	}
	for _, line := range lines[1:] {
		var note struct {
			Params struct{ Staleness *uint64 }
		}
		if err := json.Unmarshal([]byte(line), &note); err != nil || note.Params.Staleness == nil || *note.Params.Staleness != 12 {
			t.Errorf("stream line %s: staleness not 12 (%v)", line, err)
		}
	}
}

// TestReceiptFollowsTxIndexAcrossReorg: eth_getTransactionReceipt
// resolves a transaction exactly as eth_getTransactionByHash does, from the
// store's tx index: both name the transaction's block while it is
// canonical, and once a reorg abandons that block both answer null — on the
// live chain and on one reopened from the store, which does not hold the
// abandoned block.
func TestReceiptFollowsTxIndexAcrossReorg(t *testing.T) {
	cfg := chain.MainnetLikeConfig()
	kv := db.NewMemDB()
	bc, err := chain.NewBlockchainWithDB(cfg, testGenesis(), kv)
	if err != nil {
		t.Fatal(err)
	}
	genesis := bc.Genesis()
	tx := transfer(0, alice, bob, 10, 0)
	slow, err := bc.BuildBlock(pool1, genesis.Header.Time+60, []*chain.Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.InsertBlock(slow); err != nil {
		t.Fatal(err)
	}
	lookup := func(c *chain.Blockchain) (byHash, rec map[string]any) {
		t.Helper()
		srv := NewServer(ServerConfig{Workers: 2}, NewBackend("ETH", c))
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		cl := newFC(t, FailoverConfig{Endpoints: []string{ts.URL + "/eth"}})
		if _, err := cl.Call(&byHash, "eth_getTransactionByHash", tx.Hash().Hex()); err != nil {
			t.Fatalf("eth_getTransactionByHash: %v", err)
		}
		if _, err := cl.Call(&rec, "eth_getTransactionReceipt", tx.Hash().Hex()); err != nil {
			t.Fatalf("eth_getTransactionReceipt: %v", err)
		}
		return byHash, rec
	}
	byHash, rec := lookup(bc)
	if byHash["blockNumber"] != "0x1" || rec["blockNumber"] != "0x1" || rec["blockHash"] != slow.Hash().Hex() {
		t.Fatalf("tx says block %v, receipt says block %v (%v); want 0x1 (%s)",
			byHash["blockNumber"], rec["blockNumber"], rec["blockHash"], slow.Hash().Hex())
	}

	// A heavier branch without tx, built on a twin sharing genesis.
	twin, err := chain.NewBlockchain(cfg, testGenesis())
	if err != nil {
		t.Fatal(err)
	}
	parent := genesis
	for i := 0; i < 2; i++ {
		b, err := twin.BuildBlock(pool2, parent.Header.Time+10, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*chain.Blockchain{twin, bc} {
			if err := c.InsertBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		parent = b
	}
	re, err := chain.Open(cfg, kv)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.GetBlock(slow.Hash()); ok {
		t.Fatal("reopened chain holds the abandoned block; the test needs one it does not")
	}
	for name, c := range map[string]*chain.Blockchain{"live": bc, "reopened": re} {
		if byHash, rec := lookup(c); byHash != nil || rec != nil {
			t.Errorf("%s chain: the abandoned tx resolves: by hash %v, receipt %v", name, byHash, rec)
		}
	}
}
