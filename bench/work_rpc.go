package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"forkwatch/internal/chain"
	"forkwatch/internal/rpc"
	"forkwatch/internal/serve"
)

// rpcClients is the closed-loop client count: the archive's callers
// (export.FromRPC, forkanalyze, dashboards) each wait for a reply, and the
// reference sandbox has two cores.
func rpcClients() int { return min(referenceNProc, runtime.NumCPU()) }

// Headers the traced run's clients set so the server-side span can name
// its parent and its method. The server ignores them.
const (
	spanHeader = "X-Bench-Span"
	kindHeader = "X-Bench-Kind"
)

// archive is a built and served dense-day archive.
type archive struct {
	res    *serve.Result
	ts     *httptest.Server
	ix     *archiveIndex
	chains []*chain.Blockchain
	urls   []string
	closed bool
}

// close stops the server and closes the chains; closing twice is harmless.
func (a *archive) close() {
	if !a.closed {
		a.closed = true
		a.ts.Close()
		a.res.Close()
	}
}

// tracing is flipped by the traced run between its untraced and traced
// slices; clients and the server-side middleware read it per request.
type rpcTrace struct {
	tr *tracer
	on atomic.Bool
}

// middleware records one rpc.handler.<method> span per traced request:
// the time inside Server.ServeHTTP, as the HTTP server goroutine sees it.
func (rt *rpcTrace) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := r.Header.Get(spanHeader)
		if parent == "" {
			next.ServeHTTP(w, r)
			return
		}
		pid, _ := strconv.Atoi(parent)
		kind, _ := strconv.Atoi(r.Header.Get(kindHeader))
		id := rt.tr.begin("rpc.handler."+kindMethod[kind%numKinds], int64(pid), pid)
		next.ServeHTTP(w, r)
		rt.tr.end(id)
	})
}

// serveArchive builds the dense-day archive on the disk backend and puts
// it behind an in-process HTTP server with the default rpc.ServerConfig.
func serveArchive(rc *runCtx, dir string, rt *rpcTrace) (*archive, error) {
	// serve.Build into a directory that already holds the chain would
	// write it all a second time.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	sc := denseScenario(rc.seed, rc.sc, rc.sc.denseDay, diskStorage(dir))
	res, err := serve.Build(sc, rpc.ServerConfig{})
	if err != nil {
		return nil, err
	}
	var handler http.Handler = res.Server
	if rt != nil {
		handler = rt.middleware(handler)
	}
	a := &archive{res: res, ts: httptest.NewServer(handler), ix: &archiveIndex{users: sc.Users}}
	cum := 0
	for _, c := range res.Chains {
		bc := c.Ledger.BC
		ci := chainIndex{name: c.Name, head: bc.Head().Number()}
		for _, b := range bc.CanonicalBlocks(1, ci.head) {
			for _, tx := range b.Txs {
				ci.txs = append(ci.txs, tx.Hash())
			}
		}
		cum += len(ci.txs)
		ci.cumTxs = cum
		a.ix.chains = append(a.ix.chains, ci)
		a.chains = append(a.chains, bc)
		a.urls = append(a.urls, a.ts.URL+"/"+strings.ToLower(c.Name))
	}
	if cum == 0 {
		a.close()
		return nil, fmt.Errorf("the archive holds no transactions")
	}
	return a, nil
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	a         *archive
	ks        *keyStream
	hc        *http.Client
	rt        *rpcTrace
	sampler   *rand.Rand
	sampleOne int
	resp      bytes.Buffer

	attempted int
	failed    int
	latMs     []float64 // latencies of the current slice's correct answers
	respBytes int64
	seen      map[uint64]uint64 // request digest -> digest of its first answer
	notes     []string
	opSeq     int64
}

func newClient(a *archive, m mix, rc *runCtx, rt *rpcTrace, id, clients int) *client {
	return &client{
		a:  a,
		ks: newKeyStream(m, a.ix, rc.seed, id, clients),
		hc: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
		rt:        rt,
		sampler:   rand.New(rand.NewSource(rc.seed ^ int64(id+1)<<32)),
		sampleOne: rc.sc.sampleEvery,
		seen:      map[uint64]uint64{},
		opSeq:     int64(id) << 40,
	}
}

func (c *client) fail(q request, format string, args ...any) {
	c.failed++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf("FAIL: %s: %s", q.body, fmt.Sprintf(format, args...)))
	}
}

// loop issues requests until the deadline. Answers are counted only when
// record is set (the warm-up is not).
func (c *client) loop(deadline time.Time, record bool) {
	for time.Now().Before(deadline) {
		q := c.ks.next()
		req, err := http.NewRequest(http.MethodPost, c.a.urls[q.chain], bytes.NewReader(q.body))
		if err != nil {
			c.fail(q, "%v", err)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		span := -1
		if c.rt != nil && c.rt.on.Load() {
			c.opSeq++
			span = c.rt.tr.begin("http.roundtrip", c.opSeq, -1)
			req.Header.Set(spanHeader, strconv.Itoa(span))
			req.Header.Set(kindHeader, strconv.Itoa(q.kind))
		}
		t0 := time.Now()
		status, err := c.roundTrip(req)
		lat := time.Since(t0)
		if span >= 0 {
			c.rt.tr.end(span)
		}
		if !record {
			continue
		}
		c.attempted++
		switch {
		case err != nil:
			c.fail(q, "transport: %v", err)
		case status != http.StatusOK:
			c.fail(q, "HTTP status %d", status)
		default:
			if msg := c.check(q, c.resp.Bytes()); msg != "" {
				c.fail(q, "%s", msg)
				continue
			}
			c.respBytes += int64(c.resp.Len())
			c.latMs = append(c.latMs, ms(lat))
		}
	}
}

func (c *client) roundTrip(req *http.Request) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.resp.Reset()
	if _, err := c.resp.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// envelopePrefix is how every answer to an id-1 request starts today;
// answers that start differently take the slow path through a full decode.
var envelopePrefix = []byte(`{"jsonrpc":"2.0","id":1,"result":`)

func digest(b []byte, salt int) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64() + uint64(salt)
}

// check is the oracle for one answer: a well-formed, error-free 2.0
// envelope, byte-equal to the first answer seen for the same request, and
// for one answer in sampleOne equal field by field to what the chain says
// directly. It returns "" or what is wrong.
func (c *client) check(q request, resp []byte) string {
	resp = bytes.TrimSpace(resp)
	var result json.RawMessage
	if bytes.HasPrefix(resp, envelopePrefix) && bytes.HasSuffix(resp, []byte("}")) {
		result = resp[len(envelopePrefix) : len(resp)-1]
	} else {
		var env struct {
			JSONRPC string          `json:"jsonrpc"`
			ID      json.RawMessage `json:"id"`
			Result  json.RawMessage `json:"result"`
			Error   json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(resp, &env); err != nil {
			return fmt.Sprintf("malformed envelope: %v", err)
		}
		if env.JSONRPC != "2.0" || string(env.ID) != "1" || len(env.Error) > 0 || len(env.Result) == 0 {
			return fmt.Sprintf("bad envelope: %.200s", resp)
		}
		result = env.Result
	}
	if bytes.Equal(result, []byte("null")) {
		return "null result for a key the archive holds"
	}
	key, got := digest(q.body, q.chain), digest(resp, 0)
	if first, ok := c.seen[key]; !ok {
		c.seen[key] = got
	} else if first != got {
		return "answer differs from the first answer to the same request"
	}
	if c.sampler.Intn(c.sampleOne) != 0 {
		return ""
	}
	return checkFields(c.a.chains[q.chain], q, result)
}

func hexBig(s string) *big.Int {
	v, ok := new(big.Int).SetString(strings.TrimPrefix(s, "0x"), 16)
	if !ok {
		return big.NewInt(-1)
	}
	return v
}

func hexIs(s string, want uint64) bool { return hexBig(s).Cmp(new(big.Int).SetUint64(want)) == 0 }

// checkFields compares one result with direct Blockchain calls.
func checkFields(bc *chain.Blockchain, q request, result json.RawMessage) string {
	bad := func(what string) string { return fmt.Sprintf("%s differs from the chain: %.300s", what, result) }
	switch q.kind {
	case kTxByHash:
		var got struct {
			Hash, BlockHash, BlockNumber, TransactionIndex, Nonce, From, Value string
		}
		if err := json.Unmarshal(result, &got); err != nil {
			return err.Error()
		}
		tx, blockHash, number, index, ok, err := bc.TransactionByHash(q.hash)
		if err != nil || !ok {
			return fmt.Sprintf("chain has no tx %s (%v)", q.hash.Hex(), err)
		}
		if got.Hash != tx.Hash().Hex() || got.BlockHash != blockHash.Hex() || !hexIs(got.BlockNumber, number) ||
			!hexIs(got.TransactionIndex, uint64(index)) || !hexIs(got.Nonce, tx.Nonce) ||
			got.From != tx.From.Hex() || hexBig(got.Value).Cmp(tx.Value) != 0 {
			return bad("transaction")
		}
	case kReceipt:
		var got struct {
			TransactionHash, BlockHash, TransactionIndex, GasUsed, Status string
		}
		if err := json.Unmarshal(result, &got); err != nil {
			return err.Error()
		}
		rec, blockHash, index, ok, err := bc.ReceiptByTxHash(q.hash)
		if err != nil || !ok {
			return fmt.Sprintf("chain has no receipt %s (%v)", q.hash.Hex(), err)
		}
		status := uint64(0)
		if rec.Status {
			status = 1
		}
		if got.TransactionHash != q.hash.Hex() || got.BlockHash != blockHash.Hex() ||
			!hexIs(got.TransactionIndex, uint64(index)) || !hexIs(got.GasUsed, rec.GasUsed) || !hexIs(got.Status, status) {
			return bad("receipt")
		}
	case kBalance, kNonce:
		var got string
		if err := json.Unmarshal(result, &got); err != nil {
			return err.Error()
		}
		blk, ok := bc.BlockByNumber(q.from)
		if !ok {
			return fmt.Sprintf("chain has no block %d", q.from)
		}
		st, err := bc.StateAt(blk.Hash())
		if err != nil {
			return err.Error()
		}
		if q.kind == kBalance && hexBig(got).Cmp(st.GetBalance(q.addr)) != 0 {
			return bad("balance")
		}
		if q.kind == kNonce && !hexIs(got, st.GetNonce(q.addr)) {
			return bad("nonce")
		}
	case kBlockFull, kBlockHashes:
		var got struct {
			Number, Hash, ParentHash, StateRoot string
			Transactions                        []json.RawMessage
		}
		if err := json.Unmarshal(result, &got); err != nil {
			return err.Error()
		}
		blk, ok := bc.BlockByNumber(q.from)
		if !ok {
			return fmt.Sprintf("chain has no block %d", q.from)
		}
		if !hexIs(got.Number, q.from) || got.Hash != blk.Hash().Hex() || got.ParentHash != blk.Header.ParentHash.Hex() ||
			got.StateRoot != blk.Header.StateRoot.Hex() || len(got.Transactions) != len(blk.Txs) {
			return bad("block")
		}
		for i, raw := range got.Transactions {
			want := blk.Txs[i].Hash().Hex()
			if !bytes.Contains(raw, []byte(want)) {
				return bad(fmt.Sprintf("block transaction %d", i))
			}
		}
	case kDiffWindow:
		var got struct {
			Points []struct{ Number, Difficulty string }
		}
		if err := json.Unmarshal(result, &got); err != nil {
			return err.Error()
		}
		blocks := bc.CanonicalBlocks(q.from, q.to)
		if len(got.Points) != len(blocks) {
			return bad("difficulty window length")
		}
		for i, p := range got.Points {
			if !hexIs(p.Number, blocks[i].Number()) || hexBig(p.Difficulty).Cmp(blocks[i].Header.Difficulty) != 0 {
				return bad(fmt.Sprintf("difficulty point %d", i))
			}
		}
	case kPoolShares:
		var got struct {
			TotalBlocks int
			Pools       []struct{ Blocks int }
		}
		if err := json.Unmarshal(result, &got); err != nil {
			return err.Error()
		}
		sum := 0
		for _, p := range got.Pools {
			sum += p.Blocks
		}
		if want := len(bc.CanonicalBlocks(q.from, q.to)); got.TotalBlocks != want || sum != want {
			return bad("pool shares")
		}
	case kBlockNumber:
		var got string
		if err := json.Unmarshal(result, &got); err != nil {
			return err.Error()
		}
		if !hexIs(got, bc.Head().Number()) {
			return bad("head number")
		}
	}
	return ""
}

// serverCounters reads the server's own metrics registry: response-cache
// hits and misses, shed and timed-out requests, summed over routes and
// methods.
func serverCounters(srv *rpc.Server) (hits, misses, shed, timeouts float64) {
	for name, v := range srv.Registry().Snapshot() {
		n, ok := v.(uint64) // counters; gauges and histograms are other types
		if !ok {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".cache_hits"):
			hits += float64(n)
		case strings.HasSuffix(name, ".cache_misses"):
			misses += float64(n)
		case strings.HasSuffix(name, ".shed"):
			shed += float64(n)
		case strings.HasSuffix(name, ".timeouts"):
			timeouts += float64(n)
		}
	}
	return
}

func storageReads(chains []*chain.Blockchain) uint64 {
	var n uint64
	for _, bc := range chains {
		n += bc.StorageStats().Reads
	}
	return n
}

// sliceLen is the length of one unit of the measured section; the traced
// run flips between untraced and traced requests at each.
const sliceLen = time.Second

func runRPC(rc *runCtx, m mix) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	dir := filepath.Join(rc.tmp, "archive")
	var rt *rpcTrace
	if rc.traced() {
		rt = &rpcTrace{tr: rc.tr}
	}

	// Set-up: build the archive through the disk backend and boot the
	// server, as forkserve does. It takes five seconds, so it is done once.
	t0 := time.Now()
	a, err := serveArchive(rc, dir, rt)
	if err != nil {
		return nil, err
	}
	out.setup = append(out.setup, time.Since(t0).Seconds())
	defer a.close()
	id := identify(a.res)

	clients := make([]*client, rpcClients())
	for i := range clients {
		clients[i] = newClient(a, m, rc, rt, i, len(clients))
	}
	// slice runs every client for d and returns what they did as one unit.
	var latMs []float64 // latency of every correct answer of the measured section
	slice := func(d time.Duration, record bool) unit {
		cpu0, start := cpuTime(), time.Now()
		deadline := start.Add(d)
		var wg sync.WaitGroup
		for _, c := range clients {
			c.latMs = c.latMs[:0]
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.loop(deadline, record)
			}()
		}
		wg.Wait()
		dur, cpu := time.Since(start), cpuTime()-cpu0
		var lat []float64
		for _, c := range clients {
			lat = append(lat, c.latMs...)
		}
		if record {
			latMs = append(latMs, lat...)
		}
		return latencyUnit(lat, dur, cpu, rt != nil && rt.on.Load())
	}
	slice(time.Duration(rc.sc.warmup*float64(time.Second)), false)

	// The measured section is --seconds long, cut into one-second slices,
	// each a unit. The traced run alternates untraced and traced slices, so
	// that both see the same cache warmth.
	hits0, misses0, _, _ := serverCounters(a.res.Server)
	reads0 := storageReads(a.chains)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for left := rc.budget(); left > 0; left -= sliceLen {
		if rt != nil {
			rt.on.Store(!rt.on.Load())
		}
		out.units = append(out.units, slice(min(left, sliceLen), true))
	}
	runtime.ReadMemStats(&m1)
	out.opMs, out.timed = median(latMs), len(latMs)
	out.opsPerS, out.cpuMsPerOp = rates(out.units)
	hits1, misses1, shed, timeouts := serverCounters(a.res.Server)
	reads1 := storageReads(a.chains)

	// Merge the clients; two clients that sent the same request must have
	// got the same bytes.
	var respBytes int64
	seen := map[uint64]uint64{}
	for _, c := range clients {
		out.attempted += c.attempted
		out.failed += c.failed
		out.notes = append(out.notes, c.notes...)
		respBytes += c.respBytes
		for k, v := range c.seen {
			if first, ok := seen[k]; ok && first != v {
				out.fail("two clients got different answers to the same request")
			}
			seen[k] = v
		}
	}
	hitRatio := 0.0
	if lookups := hits1 - hits0 + misses1 - misses0; lookups > 0 {
		hitRatio = (hits1 - hits0) / lookups
	}
	out.notes = append(out.notes, fmt.Sprintf("dense-day: %s; %d txs indexed; %d clients; response-cache hit ratio %.4f; %d distinct requests",
		describeHeads(id), a.ix.chains[len(a.ix.chains)-1].cumTxs, len(clients), hitRatio, len(seen)))

	if rc.traced() {
		goRuntimeLayer(out, &m0, &m1)
		var plain, traced []unit
		for _, u := range out.units {
			if u.traced {
				traced = append(traced, u)
			} else {
				plain = append(plain, u)
			}
		}
		if tracedRate, _ := rates(traced); tracedRate > 0 {
			plainRate, _ := rates(plain)
			out.layer["trace.overhead_pct"] = 100 * (plainRate/tracedRate - 1)
		}
		answered := 0
		for _, u := range out.units {
			answered += u.ops
		}
		out.layer["rpc.lat_p99_ms"] = tailMs(plain)
		out.layer["rpc.cache_hit_ratio"] = hitRatio
		out.layer["rpc.shed"] = shed
		out.layer["rpc.timeouts"] = timeouts
		out.layer["rpc.resp_bytes_per_req"] = float64(respBytes) / float64(max(answered, 1))
		out.layer["db.reads_per_req"] = float64(reads1-reads0) / float64(max(out.attempted, 1))
		rpcSpanLayer(rc.tr, out)
		if err := probeRPC(rc, out, a, m); err != nil {
			return nil, err
		}
	}

	// The store's size is read once the server and the chains are closed.
	a.close()
	if id.DiskBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	out.diskBytes = id.DiskBytes
	if rc.pinned() {
		if want := rc.expected.Archives["dense-day"]; !want.equal(id) {
			out.fail("seed %d dense-day archive is %+v, %s has %+v", rc.seed, id, expectedPath, want)
		}
	}
	return out, nil
}

// rpcSpanLayer turns the traced requests' spans into the handler and
// transport percentiles: handler time per method, and per request the
// round trip minus the handler span it caused.
func rpcSpanLayer(tr *tracer, out *outcome) {
	var handler, transport []float64
	byMethod := map[string][]float64{}
	for _, s := range tr.spans {
		if s.End < 0 || s.Parent < 0 || !strings.HasPrefix(s.Name, "rpc.handler.") {
			continue
		}
		parent := tr.spans[s.Parent]
		if parent.End < 0 {
			continue
		}
		h := us(s.End - s.Start)
		handler = append(handler, h)
		transport = append(transport, us(parent.End-parent.Start)-h)
		method := strings.TrimPrefix(s.Name, "rpc.handler.")
		byMethod[method] = append(byMethod[method], h)
	}
	out.layer["rpc.handler_us_p50"] = median(handler)
	out.layer["http.transport_us_p50"] = median(transport)
	for method, xs := range byMethod {
		out.layer["rpc."+method+"_us_p50"] = median(xs)
	}
}

// probeRPC times the request decoder over the run's own request stream
// and, for the cold mix, the direct Blockchain reads under each method.
func probeRPC(rc *runCtx, out *outcome, a *archive, m mix) error {
	ks := newKeyStream(m, a.ix, rc.seed, 0, 1)
	n := rc.sc.probeReads
	var bodies [][]byte
	for i := 0; i < n; i++ {
		bodies = append(bodies, bytes.Clone(ks.next().body))
	}
	t0 := time.Now()
	for _, b := range bodies {
		if _, _, _, topErr := rpc.DecodeRequests(b, 64); topErr != nil {
			return fmt.Errorf("decoding %s: %v", b, topErr)
		}
	}
	out.layer["rpc.decode_req_us"] = us(time.Since(t0)) / float64(n)
	if !m.uniform {
		return nil
	}

	// Direct reads over the cold key stream: the same keys the methods
	// resolve, without JSON or HTTP around them.
	timings := map[int][]float64{}
	for len(timings[kTxByHash]) < n || len(timings[kReceipt]) < n || len(timings[kBalance]) < n || len(timings[kBlockFull]) < n {
		q := ks.next()
		bc := a.chains[q.chain]
		t0 := time.Now()
		switch q.kind {
		case kTxByHash:
			if _, _, _, _, ok, err := bc.TransactionByHash(q.hash); err != nil || !ok {
				return fmt.Errorf("probe: tx %s missing (%v)", q.hash.Hex(), err)
			}
		case kReceipt:
			if _, _, _, ok, err := bc.ReceiptByTxHash(q.hash); err != nil || !ok {
				return fmt.Errorf("probe: receipt %s missing (%v)", q.hash.Hex(), err)
			}
		case kBalance:
			blk, ok := bc.BlockByNumber(q.from)
			if !ok {
				return fmt.Errorf("probe: block %d missing", q.from)
			}
			st, err := bc.StateAt(blk.Hash())
			if err != nil {
				return err
			}
			st.GetBalance(q.addr)
		case kBlockFull:
			if _, ok := bc.BlockByNumber(q.from); !ok {
				return fmt.Errorf("probe: block %d missing", q.from)
			}
		default:
			continue
		}
		timings[q.kind] = append(timings[q.kind], us(time.Since(t0)))
	}
	out.layer["chain.tx_by_hash_us"] = median(timings[kTxByHash])
	out.layer["chain.receipt_by_hash_us"] = median(timings[kReceipt])
	out.layer["state.balance_at_us"] = median(timings[kBalance])
	out.layer["chain.block_by_number_us"] = median(timings[kBlockFull])
	out.layer["rpc.encode_overhead_us"] = out.layer["rpc.eth_getTransactionByHash_us_p50"] - out.layer["chain.tx_by_hash_us"]
	return nil
}
