package export

import (
	"bytes"
	"math/big"
	"net/http/httptest"
	"testing"

	"forkwatch/internal/chain"
	"forkwatch/internal/rpc"
	"forkwatch/internal/types"
)

// TestFromRPCMatchesFromStore is the round-trip guarantee: rows sourced
// over the JSON-RPC archive endpoint serialise byte-identically to rows
// read straight from the KV store — hex quantities, big difficulties and
// the receipt-joined contract flag all survive the wire.
func TestFromRPCMatchesFromStore(t *testing.T) {
	sender := types.HexToAddress("0xa11ce")
	contract := types.HexToAddress("0xc0de")
	gen := &chain.Genesis{
		Difficulty: big.NewInt(131072),
		Time:       1_000_000,
		Alloc: map[types.Address]*big.Int{
			sender: new(big.Int).Mul(big.NewInt(10), chain.Ether),
		},
		Code: map[types.Address][]byte{
			contract: {0x60, 0x60, 0x60},
		},
	}
	bc, err := chain.NewBlockchain(chain.MainnetLikeConfig(), gen)
	if err != nil {
		t.Fatal(err)
	}
	to := types.HexToAddress("0xb0b")
	mk := func(nonce uint64, dst types.Address) *chain.Transaction {
		return chain.NewTransaction(nonce, &dst, big.NewInt(5), 50_000, big.NewInt(1), nil).Sign(sender, 0)
	}
	// Block 1: plain transfer + contract call; block 2: empty; block 3:
	// one more transfer.
	for i, txs := range [][]*chain.Transaction{
		{mk(0, to), mk(1, contract)},
		nil,
		{mk(2, to)},
	} {
		blk, err := bc.BuildBlock(types.HexToAddress("0x9001"), bc.Head().Header.Time+uint64(14+i), txs)
		if err != nil {
			t.Fatal(err)
		}
		if err := bc.InsertBlock(blk); err != nil {
			t.Fatal(err)
		}
	}

	srv := rpc.NewServer(rpc.ServerConfig{Workers: 2})
	defer srv.Close()
	srv.RegisterChain(rpc.NewBackend("ETH", bc))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	fromStoreBlocks, fromStoreTxs, err := FromStore("ETH", bc.Store())
	if err != nil {
		t.Fatalf("FromStore: %v", err)
	}
	cl, err := rpc.NewFailoverClient(rpc.FailoverConfig{Endpoints: []string{ts.URL + "/eth"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fromRPCBlocks, fromRPCTxs, err := FromRPC("ETH", cl)
	if err != nil {
		t.Fatalf("FromRPC: %v", err)
	}

	if len(fromRPCTxs) != 3 {
		t.Fatalf("FromRPC txs = %d, want 3", len(fromRPCTxs))
	}
	if !fromRPCTxs[1].Contract {
		t.Error("contract-call tx should carry the receipt's contract flag")
	}

	var storeB, rpcB, storeT, rpcT bytes.Buffer
	if err := WriteBlocks(&storeB, fromStoreBlocks); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlocks(&rpcB, fromRPCBlocks); err != nil {
		t.Fatal(err)
	}
	if err := WriteTxs(&storeT, fromStoreTxs); err != nil {
		t.Fatal(err)
	}
	if err := WriteTxs(&rpcT, fromRPCTxs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeB.Bytes(), rpcB.Bytes()) {
		t.Errorf("block CSVs differ:\nstore:\n%s\nrpc:\n%s", storeB.String(), rpcB.String())
	}
	if !bytes.Equal(storeT.Bytes(), rpcT.Bytes()) {
		t.Errorf("tx CSVs differ:\nstore:\n%s\nrpc:\n%s", storeT.String(), rpcT.String())
	}
}
