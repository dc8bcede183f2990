package evm_test

import (
	"bytes"
	"errors"
	"math/big"
	"runtime"
	"testing"

	"forkwatch/internal/evm"
	"forkwatch/internal/state"
	"forkwatch/internal/types"
)

var (
	funder = types.HexToAddress("0xf00d")
	target = types.HexToAddress("0xc0de")
)

// fundedState holds one account with ether(1000) and code at target.
func fundedState(code []byte) *state.DB {
	st := state.NewEmpty()
	st.AddBalance(funder, ether(1000))
	st.SetCode(target, code)
	return st
}

// memoryGrower grows memory by one word per iteration until its gas runs
// out: i := 0; for { mem[i:i+32] = i; i += 32 }. Each iteration costs 30
// gas, 3 of them for the new word.
func memoryGrower() []byte {
	a := evm.NewAsm()
	a.Push(0)
	a.Label("loop")
	a.Op(evm.DUP1, evm.DUP1, evm.MSTORE)
	a.Push(32).Op(evm.ADD)
	a.Jump("loop")
	return a.MustAssemble()
}

// inputCaller grows memory to size bytes once, then CALLs an empty
// account with all of it as input until its gas runs out, at 75 gas a
// call.
func inputCaller(size uint64) []byte {
	a := evm.NewAsm()
	a.Push(0).Push(size - 32).Op(evm.MSTORE)
	a.Label("loop")
	a.Push(0).Push(0).Push(size).Push(0).Push(0).Push(0xdead).Push(0)
	a.Op(evm.CALL, evm.POP)
	a.Jump("loop")
	return a.MustAssemble()
}

// initCodeCreator copies its input into memory once, then CREATEs with
// all of it as init code until its gas runs out, at about 32 000 gas a
// creation.
func initCodeCreator() []byte {
	a := evm.NewAsm()
	a.Op(evm.CALLDATASIZE).Push(0).Push(0).Op(evm.CALLDATACOPY)
	a.Label("loop")
	a.Op(evm.CALLDATASIZE).Push(0).Push(0).Op(evm.CREATE, evm.POP)
	a.Jump("loop")
	return a.MustAssemble()
}

// TestAllocationLinearInGas bounds the bytes the interpreter allocates
// while a loop spends its gas, so that gas cannot buy quadratic time:
// growing memory word by word must not copy all of memory per word, a
// CALL must not copy its input range, and a creation must not spend
// memory per byte of init code on finding its jump destinations.
func TestAllocationLinearInGas(t *testing.T) {
	const gas = 400_000
	stopThenJumpdests := append([]byte{byte(evm.STOP)}, bytes.Repeat([]byte{byte(evm.JUMPDEST)}, 1<<18-1)...)
	for _, tc := range []struct {
		name        string
		code, input []byte
	}{
		{"memory growth", memoryGrower(), nil},
		{"call input", inputCaller(1 << 18), nil},
		{"init code", initCodeCreator(), stopThenJumpdests},
	} {
		e := evm.New(fundedState(tc.code), evm.Context{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, left, err := e.Call(funder, target, tc.input, nil, gas)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, evm.ErrOutOfGas) || left != 0 {
			t.Fatalf("%s: left %d, err %v; want out of gas", tc.name, left, err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d gas allocated %d bytes", tc.name, gas, got)
		if got > 32*gas {
			t.Errorf("%s: %d gas allocated %d bytes, want at most %d", tc.name, gas, got, 32*gas)
		}
	}
}

// TestCreateDepositFailureDropsLogs: init code that logs, then returns
// more code than its gas can pay the deposit for, fails out of gas, and
// the failed frame's log goes with its state.
func TestCreateDepositFailureDropsLogs(t *testing.T) {
	initCode := evm.NewAsm().
		Push(0).Push(0).Op(evm.LOG0).
		Push(1000).Push(0).Op(evm.RETURN).MustAssemble()
	st := fundedState(nil)
	e := evm.New(st, evm.Context{})
	addr, left, err := e.Create(funder, initCode, nil, 5_000)
	if !errors.Is(err, evm.ErrOutOfGas) || left != 0 || !addr.IsZero() {
		t.Fatalf("Create = %s, left %d, err %v; want out of gas", addr, left, err)
	}
	if len(e.Logs) != 0 {
		t.Errorf("%d logs survive the failed creation, want 0", len(e.Logs))
	}
	if code := st.GetCode(evm.CreateAddress(funder, 0)); len(code) != 0 {
		t.Errorf("failed creation installed %d bytes of code", len(code))
	}
	if got := st.GetNonce(funder); got != 1 {
		t.Errorf("creator nonce = %d, want 1 (bumped even when creation fails)", got)
	}
}

// TestInstructionTable checks the table's families through the mnemonics
// it declares.
func TestInstructionTable(t *testing.T) {
	for op, want := range map[evm.OpCode]string{
		evm.PUSH32: "PUSH32", evm.DUP16: "DUP16", evm.SWAP16: "SWAP16",
		evm.LOG0: "LOG0", evm.LOG4: "LOG4", evm.DELEGATECALL: "DELEGATECALL",
		0xa5: "INVALID(0xa5)", 0x0c: "INVALID(0x0c)",
	} {
		if got := op.String(); got != want {
			t.Errorf("%#x.String() = %q, want %q", byte(op), got, want)
		}
	}
	seen := make(map[string]evm.OpCode)
	for i := 0; i < 256; i++ {
		op := evm.OpCode(i)
		name := op.String()
		if prev, dup := seen[name]; dup {
			t.Errorf("%#x and %#x are both %s", byte(prev), i, name)
		}
		seen[name] = op
	}
}

// fuzzSeeds are the test contracts FuzzEVM starts from: the DAO vault and
// its attacker, their deployment code, the memory grower, and programs
// that touch every part of the interpreter.
func fuzzSeeds() [][]byte {
	asm := func(build func(a *evm.Asm)) []byte {
		a := evm.NewAsm()
		build(a)
		return a.MustAssemble()
	}
	vault := vaultRuntime()
	return [][]byte{
		vault,
		attackerRuntime(target),
		initFor(vault),
		memoryGrower(),
		asm(func(a *evm.Asm) { // arithmetic, signed and modular
			a.Push(7).Push(5).Push(4).Op(evm.ADDMOD, evm.DUP1, evm.MUL)
			a.PushBig(new(big.Int).Lsh(big.NewInt(1), 255)).Op(evm.SDIV, evm.DUP1, evm.NOT)
			a.Push(3).Op(evm.SAR, evm.DUP1).Push(2).Op(evm.EXP, evm.DUP1).Push(30).Op(evm.BYTE)
			a.Push(0).Op(evm.SIGNEXTEND).Push(0).Op(evm.MSTORE).Push(32).Push(0).Op(evm.RETURN)
		}),
		asm(func(a *evm.Asm) { // memory, copies, hashing, logs
			a.Push(64).Push(0).Push(0).Op(evm.CALLDATACOPY)
			a.Push(32).Push(0).Push(32).Op(evm.CODECOPY)
			a.Push(64).Push(0).Op(evm.SHA3).Push(7).Op(evm.MSTORE8)
			a.Op(evm.CALLER).Push(9).Op(evm.MSIZE).Push(0).Op(evm.LOG2)
			a.Op(evm.MSIZE).Push(0).Op(evm.RETURN)
		}),
		asm(func(a *evm.Asm) { // storage, then a revert that undoes it
			a.Push(1).Push(0).Op(evm.SSTORE).Push(0).Op(evm.SLOAD)
			a.Push(0).Push(0).Op(evm.LOG0).Push(0).Push(0).Op(evm.REVERT)
		}),
		asm(func(a *evm.Asm) { // a value call to itself, then a delegate call
			a.Push(0).Push(0).Push(0).Push(0).Push(1).Op(evm.ADDRESS, evm.GAS, evm.CALL)
			a.Push(32).Push(0).Push(0).Push(0).Op(evm.ADDRESS, evm.GAS, evm.DELEGATECALL)
			a.Op(evm.RETURNDATASIZE).Push(0).Push(0).Op(evm.RETURNDATACOPY, evm.STOP)
		}),
		asm(func(a *evm.Asm) { // CALLDATALOAD whose window crosses 2^64
			a.PushBig(new(big.Int).SetUint64(1<<64 - 1)).Op(evm.CALLDATALOAD)
			a.PushBig(new(big.Int).SetUint64(1<<64-31)).Op(evm.CALLDATALOAD, evm.OR)
			a.Push(0).Op(evm.MSTORE).Push(32).Push(0).Op(evm.RETURN)
		}),
		asm(func(a *evm.Asm) { // DELEGATECALL into itself until gas or depth refuses it
			a.Push(0).Push(0).Push(0).Push(0).Op(evm.ADDRESS, evm.GAS, evm.DELEGATECALL)
			a.Op(evm.GAS).Push(0).Op(evm.MSTORE).Push(32).Push(0).Op(evm.RETURN)
		}),
		asm(func(a *evm.Asm) { // CREATE of the input as init code
			a.Op(evm.CALLDATASIZE).Push(0).Push(0).Op(evm.CALLDATACOPY)
			a.Op(evm.CALLDATASIZE).Push(0).Push(0).Op(evm.CREATE)
		}),
	}
}

// FuzzEVM runs arbitrary code, input and gas through Call (code installed
// at the callee) and Create (code as init code) on funded state. Nothing
// may panic and no call may return more gas than it was given. A failed
// call leaves the state root and the logs as they were, apart from the
// creator's nonce, which Create bumps whatever happens; every error but
// REVERT also burns all the gas.
func FuzzEVM(f *testing.F) {
	for _, code := range fuzzSeeds() {
		f.Add(code, selector(1), uint32(1_000_000), uint8(0))
		f.Add(code, initFor(vaultRuntime()), uint32(300_000), uint8(7))
	}
	f.Fuzz(func(t *testing.T, code, input []byte, gas uint32, value uint8) {
		g := uint64(gas % 2_000_000) // enough for every path, few enough to stay fast
		v := big.NewInt(int64(value))
		for _, create := range []bool{false, true} {
			st := fundedState(code)
			root, err := st.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if create {
				twin, err := st.Copy()
				if err != nil {
					t.Fatal(err)
				}
				twin.SetNonce(funder, twin.GetNonce(funder)+1)
				if root, err = twin.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			e := evm.New(st, evm.Context{BlockNumber: big.NewInt(1_920_000), ChainID: 1, Origin: funder})
			var left uint64
			if create {
				_, left, err = e.Create(funder, code, v, g)
			} else {
				_, left, err = e.Call(funder, target, input, v, g)
			}
			if left > g {
				t.Fatalf("create=%v: %d gas left of %d", create, left, g)
			}
			if err == nil {
				continue
			}
			if !errors.Is(err, evm.ErrRevert) && left != 0 {
				t.Errorf("create=%v: %v left %d gas, want 0", create, err, left)
			}
			if len(e.Logs) != 0 {
				t.Errorf("create=%v: %v kept %d logs", create, err, len(e.Logs))
			}
			if got, cerr := st.Commit(); cerr != nil || got != root {
				t.Errorf("create=%v: %v moved the state root %s -> %s (%v)", create, err, root, got, cerr)
			}
		}
	})
}
