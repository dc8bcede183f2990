package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	"forkwatch/internal/db/diskdb/faultfile"
	"forkwatch/internal/rpc"
	"forkwatch/internal/sim"
	"forkwatch/internal/types"
)

// smallScenario is a fast full-fidelity scenario: one short simulated
// day, tiny population, enough blocks and transactions for every RPC
// method to have something to return.
func smallScenario(dataDir string) *sim.Scenario {
	sc := sim.NewScenario(7, 1)
	sc.Mode = sim.ModeFull
	sc.DayLength = 3600
	sc.Users = 40
	sc.ETHTxPerDay = 30
	sc.ETCTxPerDay = 12
	sc.Storage.Backend = "disk"
	sc.Storage.DataDir = dataDir
	return sc
}

// post sends one JSON-RPC request body to a route of the archive and
// returns the raw response bytes.
func post(t *testing.T, handler http.Handler, route, body string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, route, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: HTTP %d: %s", route, body, rec.Code, rec.Body.Bytes())
	}
	out, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOpenServesByteIdenticalResponses is the restart acceptance test:
// build the archive once on the disk backend, interrogate every RPC
// method, shut the process model down, reopen the SAME data directory
// via Open — which must not re-simulate — and require byte-identical
// responses to the identical requests.
func TestOpenServesByteIdenticalResponses(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity build")
	}
	dataDir := t.TempDir()
	built, err := Build(smallScenario(dataDir), rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	// Assemble the request set from the built chains: every method, on
	// both routes, with concrete params harvested from the ETH/ETC heads.
	reqID := 0
	var requests []struct{ route, body string }
	add := func(route, method, params string) {
		reqID++
		requests = append(requests, struct{ route, body string }{
			route: route,
			body: fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":"%s","params":[%s]}`,
				reqID, method, params),
		})
	}
	for route, bc := range map[string]*chain.Blockchain{"/eth": built.Ledger("ETH").BC, "/etc": built.Ledger("ETC").BC} {
		head := bc.Head()
		add(route, "eth_blockNumber", "")
		add(route, "eth_getBlockByNumber", `"0x1", true`)
		add(route, "eth_getBlockByNumber", fmt.Sprintf(`"0x%x", false`, head.Number()))
		add(route, "eth_getBlockByHash", fmt.Sprintf(`"%s", true`, head.Hash()))
		var tx *chain.Transaction
		for n := head.Number(); n > 0 && tx == nil; n-- {
			if blk, ok := bc.BlockByNumber(n); ok && len(blk.Txs) > 0 {
				tx = blk.Txs[0]
			}
		}
		if tx == nil {
			t.Fatalf("%s: the simulated day mined no transactions", route)
		}
		add(route, "eth_getTransactionByHash", fmt.Sprintf(`"%s"`, tx.Hash()))
		add(route, "eth_getTransactionReceipt", fmt.Sprintf(`"%s"`, tx.Hash()))
		add(route, "eth_getBalance", fmt.Sprintf(`"%s", "latest"`, tx.From))
		add(route, "eth_getTransactionCount", fmt.Sprintf(`"%s", "latest"`, tx.From))
		add(route, "fork_difficultyWindow", fmt.Sprintf(`"0x1", "0x%x"`, head.Number()))
		add(route, "fork_echoCandidates", `"0x1", "0x20"`)
		add(route, "fork_poolShares", fmt.Sprintf(`"0x1", "0x%x"`, head.Number()))
	}

	before := make([][]byte, len(requests))
	for i, r := range requests {
		before[i] = post(t, built.Server, r.route, r.body)
	}
	built.Server.Close()

	// Restart: reopen the same directory. No engine may run.
	reopened, err := Open(smallScenario(dataDir), rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("Open after restart: %v", err)
	}
	defer reopened.Server.Close()
	if reopened.Engine != nil {
		t.Fatal("Open ran a simulation engine; restarts must serve from disk alone")
	}
	if reopened.Ledger("ETH").BC.Head().Hash() != built.Ledger("ETH").BC.Head().Hash() {
		t.Fatal("reopened ETH head diverged from the built chain")
	}
	if reopened.Ledger("ETC").BC.Head().Hash() != built.Ledger("ETC").BC.Head().Hash() {
		t.Fatal("reopened ETC head diverged from the built chain")
	}
	for i, r := range requests {
		after := post(t, reopened.Server, r.route, r.body)
		if !bytes.Equal(before[i], after) {
			t.Errorf("%s %s:\n before %s\n after  %s", r.route, r.body, before[i], after)
		}
	}

	// OpenOrBuild over the same directory must take the reopen path too.
	again, err := OpenOrBuild(smallScenario(dataDir), rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("OpenOrBuild over existing archive: %v", err)
	}
	defer again.Server.Close()
	if again.Engine != nil {
		t.Fatal("OpenOrBuild re-simulated although the directory holds an archive")
	}
}

// TestOpenOrBuildFreshDirectoryBuilds: an empty data directory has no
// chain, so OpenOrBuild must fall back to running the simulation.
func TestOpenOrBuildFreshDirectoryBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity build")
	}
	res, err := OpenOrBuild(smallScenario(t.TempDir()), rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("OpenOrBuild over fresh dir: %v", err)
	}
	defer res.Server.Close()
	if res.Engine == nil {
		t.Fatal("fresh directory did not build")
	}
	if res.Ledger("ETH").BC.Head().Number() == 0 {
		t.Fatal("built archive has no blocks")
	}
}

// TestBuildRefusesPersistedArchive: Build over a directory that already
// holds the chains must fail, pointing at OpenOrBuild, and leave the
// directory as it was instead of writing every chain a second time.
func TestBuildRefusesPersistedArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity build")
	}
	dataDir := t.TempDir()
	built, err := Build(smallScenario(dataDir), rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	built.Close()
	before := dirSizes(t, dataDir)

	if res, err := Build(smallScenario(dataDir), rpc.ServerConfig{}); err == nil {
		res.Close()
		t.Fatal("second Build into the same directory succeeded")
	} else if !strings.Contains(err.Error(), "OpenOrBuild") {
		t.Errorf("refusal does not point at OpenOrBuild: %v", err)
	}
	if after := dirSizes(t, dataDir); !maps.Equal(before, after) {
		t.Errorf("refused Build changed the directory:\n before %v\n after  %v", before, after)
	}
}

// dirSizes maps every file under root to its size.
func dirSizes(t *testing.T, root string) map[string]int64 {
	t.Helper()
	sizes := map[string]int64{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		sizes[path] = info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sizes
}

// TestCloseThenOpen: a fault-free full-mode disk run stacks a
// db.Coalescer over each disk store; closing it — through Result.Close
// after a Build, or through Engine.Close after a bare sim.New + Run, the
// path forksim takes — must reach the store underneath, so a second close
// is a no-op, a write through the closed stack fails instead of
// panicking, and Open of the same directory in this process finds the
// same heads and state roots with nothing to repair.
func TestCloseThenOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity build")
	}
	type closer func() error
	for name, run := range map[string]func(*testing.T, *sim.Scenario) ([]sim.Ledger, closer){
		"Result.Close": func(t *testing.T, sc *sim.Scenario) ([]sim.Ledger, closer) {
			built, err := Build(sc, rpc.ServerConfig{})
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			return built.Engine.Ledgers(), built.Close
		},
		"Engine.Close": func(t *testing.T, sc *sim.Scenario) ([]sim.Ledger, closer) {
			eng, err := sim.New(sc)
			if err != nil {
				t.Fatalf("sim.New: %v", err)
			}
			if err := eng.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			return eng.Ledgers(), eng.Close
		},
	} {
		t.Run(name, func(t *testing.T) {
			dataDir := t.TempDir()
			ledgers, closeAll := run(t, smallScenario(dataDir))
			type head struct{ hash, root types.Hash }
			var heads []head
			for _, led := range ledgers {
				h := led.(*sim.FullLedger).BC.Head()
				heads = append(heads, head{h.Hash(), h.Header.StateRoot})
			}
			if err := closeAll(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := closeAll(); err != nil {
				t.Fatalf("second close: %v", err)
			}
			for _, led := range ledgers {
				// The coalescer only stages a Put; the flush is the store write.
				coal, ok := led.(*sim.FullLedger).BC.DB().(*db.Coalescer)
				if !ok {
					t.Fatalf("store is %T, want the engine's *db.Coalescer", led.(*sim.FullLedger).BC.DB())
				}
				if err := coal.Put([]byte("after-close"), []byte{1}); err != nil {
					t.Fatal(err)
				}
				if err := coal.Flush(); err == nil {
					t.Error("a closed store accepted a write")
				}
			}

			reopened, err := Open(smallScenario(dataDir), rpc.ServerConfig{})
			if err != nil {
				t.Fatalf("Open after close: %v", err)
			}
			defer reopened.Close()
			for i, c := range reopened.Chains {
				h := c.Ledger.BC.Head()
				if got := (head{h.Hash(), h.Header.StateRoot}); got != heads[i] {
					t.Errorf("%s head after reopen = %+v, was %+v", c.Name, got, heads[i])
				}
				if n := c.Ledger.BC.StorageStats().Repairs; n != 0 {
					t.Errorf("%s store repaired %d records on reopen; a clean close leaves none", c.Name, n)
				}
			}
		})
	}
}

// openHandlesUnder lists this process's open files below root (Linux's
// /proc/self/fd; the test skips where that does not exist).
func openHandlesUnder(t *testing.T, root string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count open segment handles with: %v", err)
	}
	root, err = filepath.EvalSymlinks(root)
	if err != nil {
		t.Fatal(err)
	}
	var open []string
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, root+string(filepath.Separator)) {
			open = append(open, target)
		}
	}
	return open
}

// TestOpenFailureClosesOpenedStores: an Open that cannot serve — the
// ErrNoChain path OpenOrBuild takes on a fresh directory, or a later
// partition missing from a half-built one — must close every store it
// opened, so a Build into the same directory works in this process.
func TestOpenFailureClosesOpenedStores(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity build")
	}
	dataDir := t.TempDir()
	if _, err := Open(smallScenario(dataDir), rpc.ServerConfig{}); !errors.Is(err, chain.ErrNoChain) {
		t.Fatalf("Open of a fresh directory = %v, want ErrNoChain", err)
	}
	if open := openHandlesUnder(t, dataDir); len(open) > 0 {
		t.Fatalf("failed Open left segment handles open: %v", open)
	}
	built, err := Build(smallScenario(dataDir), rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("Build into the directory a failed Open touched: %v", err)
	}
	built.Close()

	// Half-built: the first partition holds its chain, the last one lost it.
	last := built.Chains[len(built.Chains)-1].Name
	if err := os.RemoveAll(sim.ChainDataDir(dataDir, last)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(smallScenario(dataDir), rpc.ServerConfig{}); !errors.Is(err, chain.ErrNoChain) {
		t.Fatalf("Open of a half-built directory = %v, want ErrNoChain", err)
	}
	if open := openHandlesUnder(t, dataDir); len(open) > 0 {
		t.Fatalf("Open failing on %s left earlier stores open: %v", last, open)
	}
}

// TestOpenAppliesStorageFaults: Open serves a reopened archive through
// the scenario's fault plan. With every read of the medium failing it
// cannot serve the archive, and says so with a typed read error — an
// injected, transient fault — instead of answering from it.
func TestOpenAppliesStorageFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity build")
	}
	dataDir := t.TempDir()
	built, err := Build(smallScenario(dataDir), rpc.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	built.Close()

	sc := smallScenario(dataDir)
	sc.StorageFaults = faultfile.Faults{Seed: 1, ReadErrRate: 1}
	res, err := Open(sc, rpc.ServerConfig{})
	if err == nil {
		res.Close()
		t.Fatal("Open served an archive whose every read fails")
	}
	if !errors.Is(err, faultfile.ErrInjected) || !db.IsTransient(err) {
		t.Fatalf("Open = %v, want the injected read error", err)
	}
	if open := openHandlesUnder(t, dataDir); len(open) > 0 {
		t.Fatalf("failed Open left segment handles open: %v", open)
	}
	sc.Crashes = []sim.CrashSpec{{Chain: "ETH", Day: 0, Block: 1}}
	if res, err := Open(sc, rpc.ServerConfig{}); err == nil {
		res.Close()
		t.Fatal("Open accepted a crash schedule it never applies")
	}
}

// threeWayScenario is a tiny full-fidelity three-partition scenario for
// the N-way serving tests.
func threeWayScenario(dataDir string) *sim.Scenario {
	sc := sim.NewScenario(7, 1)
	sc.Mode = sim.ModeFull
	sc.DayLength = 3600
	sc.Users = 30
	sc.Storage.Backend = "disk"
	sc.Storage.DataDir = dataDir
	sc.Partitions = []sim.PartitionSpec{
		{Name: "ONE", ChainID: 1, DAOSupport: true, Price0: 10, RallyShare: 1,
			PrimaryFraction: 0.5, TxPerDay: 30, EIP155Day: -1, Pools: 20, PoolAlpha: 1, PoolCap: 0.24},
		{Name: "TWO", ChainID: 2, ShareAtFork: 0.2, Price0: 5, RallyShare: 1,
			PrimaryFraction: 0.3, TxPerDay: 12, EIP155Day: -1, Pools: 15, PoolAlpha: 1.2, PoolCap: 0.24},
		{Name: "TRI", ChainID: 3, ShareAtFork: 0.1, Price0: 2, RallyShare: 1,
			PrimaryFraction: 0.1, TxPerDay: 8, EIP155Day: -1, Pools: 10, PoolAlpha: 1.3, PoolCap: 0.3},
	}
	return sc
}

// TestThreeWayRoutesAndRestart builds a three-partition archive, checks
// every chain is routed at its lowercase name with cross-linked peers,
// then reopens it from disk and requires identical heads.
func TestThreeWayRoutesAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity build")
	}
	dataDir := t.TempDir()
	built, err := Build(threeWayScenario(dataDir), rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(built.Chains) != 3 {
		t.Fatalf("served %d chains, want 3", len(built.Chains))
	}
	for _, c := range built.Chains {
		route := "/" + strings.ToLower(c.Name)
		raw := post(t, built.Server, route, `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`)
		if !bytes.Contains(raw, []byte(`"result"`)) {
			t.Errorf("%s: no result: %s", route, raw)
		}
		if c.Ledger.BC.Head().Number() == 0 {
			t.Errorf("%s mined no blocks", c.Name)
		}
		// fork_echoCandidates needs peers: every backend must be linked to
		// the other two.
		raw = post(t, built.Server, route, `{"jsonrpc":"2.0","id":2,"method":"fork_echoCandidates","params":["0x1","0x10"]}`)
		for _, other := range built.Chains {
			if other.Name == c.Name {
				continue
			}
			if !bytes.Contains(raw, []byte(`"`+other.Name+`"`)) {
				t.Errorf("%s echo candidates do not list peer %s: %s", c.Name, other.Name, raw)
			}
		}
	}
	heads := map[string]string{}
	for _, c := range built.Chains {
		heads[c.Name] = c.Ledger.BC.Head().Hash().String()
	}
	built.Server.Close()

	reopened, err := Open(threeWayScenario(dataDir), rpc.ServerConfig{})
	if err != nil {
		t.Fatalf("Open after restart: %v", err)
	}
	defer reopened.Server.Close()
	if reopened.Engine != nil {
		t.Fatal("Open ran a simulation engine")
	}
	if len(reopened.Chains) != 3 {
		t.Fatalf("reopened %d chains, want 3", len(reopened.Chains))
	}
	for _, c := range reopened.Chains {
		if got := c.Ledger.BC.Head().Hash().String(); got != heads[c.Name] {
			t.Errorf("%s head diverged after restart: %s vs %s", c.Name, got, heads[c.Name])
		}
	}
}
