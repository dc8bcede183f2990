package evm

import (
	"errors"
	"math/big"
	"testing"

	"forkwatch/internal/state"
	"forkwatch/internal/types"
)

var (
	alice = types.HexToAddress("0xa11ce")
	bob   = types.HexToAddress("0xb0b")
)

// newTestEVM returns an EVM over fresh state with alice funded.
func newTestEVM() *EVM {
	st := state.NewEmpty()
	st.AddBalance(alice, big.NewInt(1_000_000_000))
	return New(st, Context{BlockNumber: big.NewInt(1_920_000), Timestamp: 1_469_020_840})
}

// deploy installs code at a fixed address without running init code.
func deploy(e *EVM, code []byte) types.Address {
	addr := types.HexToAddress("0xc0de")
	e.State.SetCode(addr, code)
	return addr
}

// runReturning executes code that RETURNs a 32-byte word and decodes it.
func runReturning(t *testing.T, code []byte) *big.Int {
	t.Helper()
	e := newTestEVM()
	addr := deploy(e, code)
	ret, _, err := e.Call(alice, addr, nil, nil, 1_000_000)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if len(ret) != 32 {
		t.Fatalf("expected 32-byte return, got %d bytes", len(ret))
	}
	return new(big.Int).SetBytes(ret)
}

// returnTop wraps a computation so its top-of-stack result is returned.
func returnTop(build func(a *Asm)) []byte {
	a := NewAsm()
	build(a)
	a.Push(0).Op(MSTORE).Push(32).Push(0).Op(RETURN)
	return a.MustAssemble()
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		name  string
		build func(a *Asm)
		want  int64
	}{
		{"add", func(a *Asm) { a.Push(3).Push(2).Op(ADD) }, 5},
		{"sub", func(a *Asm) { a.Push(3).Push(10).Op(SUB) }, 7},
		{"mul", func(a *Asm) { a.Push(6).Push(7).Op(MUL) }, 42},
		{"div", func(a *Asm) { a.Push(5).Push(20).Op(DIV) }, 4},
		{"div by zero", func(a *Asm) { a.Push(0).Push(20).Op(DIV) }, 0},
		{"mod", func(a *Asm) { a.Push(5).Push(17).Op(MOD) }, 2},
		{"mod by zero", func(a *Asm) { a.Push(0).Push(17).Op(MOD) }, 0},
		{"lt true", func(a *Asm) { a.Push(5).Push(3).Op(LT) }, 1},
		{"gt false", func(a *Asm) { a.Push(5).Push(3).Op(GT) }, 0},
		{"eq", func(a *Asm) { a.Push(9).Push(9).Op(EQ) }, 1},
		{"iszero", func(a *Asm) { a.Push(0).Op(ISZERO) }, 1},
		{"and", func(a *Asm) { a.Push(0b1100).Push(0b1010).Op(AND) }, 0b1000},
		{"or", func(a *Asm) { a.Push(0b1100).Push(0b1010).Op(OR) }, 0b1110},
		{"xor", func(a *Asm) { a.Push(0b1100).Push(0b1010).Op(XOR) }, 0b0110},
	}
	for _, tc := range cases {
		if got := runReturning(t, returnTop(tc.build)); got.Int64() != tc.want {
			t.Errorf("%s: got %v, want %d", tc.name, got, tc.want)
		}
	}
}

func TestAddWraps256Bits(t *testing.T) {
	max := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	code := returnTop(func(a *Asm) { a.Push(1).PushBig(max).Op(ADD) })
	if got := runReturning(t, code); got.Sign() != 0 {
		t.Errorf("2^256-1 + 1 = %v, want 0", got)
	}
}

func TestSubWrapsNegative(t *testing.T) {
	// 0 - 1 wraps to 2^256-1.
	code := returnTop(func(a *Asm) { a.Push(1).Push(0).Op(SUB) })
	want := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	if got := runReturning(t, code); got.Cmp(want) != 0 {
		t.Errorf("0-1 = %v, want 2^256-1", got)
	}
}

func TestEnvironmentOpcodes(t *testing.T) {
	if got := runReturning(t, returnTop(func(a *Asm) { a.Op(NUMBER) })); got.Int64() != 1_920_000 {
		t.Errorf("NUMBER = %v", got)
	}
	if got := runReturning(t, returnTop(func(a *Asm) { a.Op(TIMESTAMP) })); got.Int64() != 1_469_020_840 {
		t.Errorf("TIMESTAMP = %v", got)
	}
	if got := runReturning(t, returnTop(func(a *Asm) { a.Op(CALLER) })); types.BytesToAddress(got.Bytes()) != alice {
		t.Errorf("CALLER = %v", got)
	}
}

func TestCalldata(t *testing.T) {
	e := newTestEVM()
	addr := deploy(e, returnTop(func(a *Asm) { a.Push(0).Op(CALLDATALOAD) }))
	input := make([]byte, 32)
	input[31] = 0x2a
	ret, _, err := e.Call(alice, addr, input, nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if new(big.Int).SetBytes(ret).Int64() != 42 {
		t.Errorf("CALLDATALOAD = %x", ret)
	}
	// Reads past the end of calldata are zero-padded.
	short := deploy(e, returnTop(func(a *Asm) { a.Push(31).Op(CALLDATALOAD) }))
	ret, _, err = e.Call(alice, short, []byte{0xff}, nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if new(big.Int).SetBytes(ret).Sign() != 0 {
		t.Errorf("out-of-range CALLDATALOAD = %x, want 0", ret)
	}
}

// TestCalldataloadOffsetNearWrap: an offset whose 32-byte window crosses
// 2^64 reads zeros, not the start of the input.
func TestCalldataloadOffsetNearWrap(t *testing.T) {
	input := make([]byte, 40)
	for i := range input {
		input[i] = byte(i + 1)
	}
	top := new(big.Int).Lsh(big.NewInt(1), 64)
	for _, back := range []int64{1, 2, 31, 32, 33} {
		off := new(big.Int).Sub(top, big.NewInt(back))
		e := newTestEVM()
		addr := deploy(e, returnTop(func(a *Asm) { a.PushBig(off).Op(CALLDATALOAD) }))
		ret, _, err := e.Call(alice, addr, input, nil, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if new(big.Int).SetBytes(ret).Sign() != 0 {
			t.Errorf("CALLDATALOAD at 2^64-%d = %x, want 0", back, ret)
		}
	}
	// The last input byte still reads, at the word's top.
	e := newTestEVM()
	addr := deploy(e, returnTop(func(a *Asm) { a.Push(39).Op(CALLDATALOAD) }))
	ret, _, err := e.Call(alice, addr, input, nil, 1_000_000)
	if err != nil || len(ret) != 32 || ret[0] != 40 || new(big.Int).SetBytes(ret[1:]).Sign() != 0 {
		t.Errorf("CALLDATALOAD at 39 = %x (%v), want 0x28 then zeros", ret, err)
	}
}

// TestDelegateCallAtDepthLimitKeepsGas: a DELEGATECALL refused at the
// depth limit runs nothing and hands its gas back, as a refused CALL does.
func TestDelegateCallAtDepthLimitKeepsGas(t *testing.T) {
	e := newTestEVM()
	library := types.HexToAddress("0x11b")
	e.State.SetCode(library, NewAsm().Push(1).Push(1).Op(SSTORE).MustAssemble())
	proxy := deploy(e, returnTop(func(a *Asm) {
		a.Push(0).Push(0).Push(0).Push(0).PushAddr(library).Op(GAS, DELEGATECALL)
		a.Push(1).Op(SSTORE) // slot 1 = the success flag
		a.Op(GAS)
	}))
	const gas = 100_000
	e.depth = MaxCallDepth - 1 // the proxy runs at the limit
	ret, left, err := e.Call(alice, proxy, nil, nil, gas)
	if err != nil {
		t.Fatal(err)
	}
	if after := new(big.Int).SetBytes(ret).Uint64(); after < gas-30_000 {
		t.Errorf("gas after the refused DELEGATECALL = %d of %d: the forwarded gas was burnt", after, gas)
	}
	if left < gas-30_000 {
		t.Errorf("Call left %d of %d gas", left, gas)
	}
	if flag := e.State.GetState(proxy, types.BytesToHash([]byte{1})); !flag.IsZero() {
		t.Errorf("refused DELEGATECALL pushed success %v", flag.Big())
	}
}

func TestStoragePersistsAcrossCalls(t *testing.T) {
	e := newTestEVM()
	// First call stores 77 at slot 5; second call loads it.
	store := NewAsm().Push(77).Push(5).Op(SSTORE).Op(STOP).MustAssemble()
	addr := deploy(e, store)
	if _, _, err := e.Call(alice, addr, nil, nil, 1_000_000); err != nil {
		t.Fatal(err)
	}
	e.State.SetCode(addr, returnTop(func(a *Asm) { a.Push(5).Op(SLOAD) }))
	ret, _, err := e.Call(alice, addr, nil, nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if new(big.Int).SetBytes(ret).Int64() != 77 {
		t.Errorf("SLOAD after SSTORE = %x", ret)
	}
}

func TestJumpLoop(t *testing.T) {
	// Sum 1..10 with a loop: i in slot of stack, acc on stack.
	a := NewAsm()
	a.Push(0)  // acc
	a.Push(10) // i
	a.Label("loop")
	// stack: [acc, i]
	a.Op(DUP1).JumpI("body")
	a.Jump("end")
	a.Label("body")
	// acc += i; i -= 1
	a.Op(DUP1)          // [acc, i, i]
	a.Op(SWAP1 + 1)     // SWAP2: [i, i, acc] -> top acc
	a.Op(ADD)           // [i, acc+i]
	a.Op(SWAP1)         // [acc', i]
	a.Push(1).Op(SWAP1) // [acc', i, 1] -> [acc', 1, i]
	a.Op(SUB)           // [acc', i-1]
	a.Jump("loop")
	a.Label("end")
	a.Op(POP) // drop i
	a.Push(0).Op(MSTORE).Push(32).Push(0).Op(RETURN)
	if got := runReturning(t, a.MustAssemble()); got.Int64() != 55 {
		t.Errorf("sum 1..10 = %v, want 55", got)
	}
}

func TestInvalidJumpFails(t *testing.T) {
	e := newTestEVM()
	addr := deploy(e, NewAsm().Push(3).Op(JUMP).MustAssemble())
	_, left, err := e.Call(alice, addr, nil, nil, 10_000)
	if !errors.Is(err, ErrInvalidJump) {
		t.Fatalf("err = %v, want ErrInvalidJump", err)
	}
	if left != 0 {
		t.Errorf("invalid jump should consume all gas, left %d", left)
	}
}

func TestJumpIntoPushDataFails(t *testing.T) {
	// PUSH2 0x005b JUMP: byte 0x5b exists at pc 2 but inside push data.
	e := newTestEVM()
	code := []byte{byte(PUSH1) + 1, 0x00, 0x5b, byte(PUSH1), 0x02, byte(JUMP)}
	addr := deploy(e, code)
	if _, _, err := e.Call(alice, addr, nil, nil, 10_000); !errors.Is(err, ErrInvalidJump) {
		t.Fatalf("err = %v, want ErrInvalidJump", err)
	}
}

func TestOutOfGas(t *testing.T) {
	e := newTestEVM()
	// Infinite loop.
	addr := deploy(e, NewAsm().Label("l").Jump("l").MustAssemble())
	_, left, err := e.Call(alice, addr, nil, nil, 5_000)
	if !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("err = %v, want ErrOutOfGas", err)
	}
	if left != 0 {
		t.Errorf("out of gas should consume everything, left %d", left)
	}
}

func TestRevertRollsBackStateAndRefundsGas(t *testing.T) {
	e := newTestEVM()
	addr := deploy(e, NewAsm().
		Push(1).Push(0).Op(SSTORE). // write, then revert
		Push(0).Push(0).Op(REVERT).MustAssemble())
	_, left, err := e.Call(alice, addr, nil, nil, 100_000)
	if !errors.Is(err, ErrRevert) {
		t.Fatalf("err = %v, want ErrRevert", err)
	}
	if left == 0 {
		t.Error("REVERT should refund remaining gas")
	}
	if !e.State.GetState(addr, types.Hash{}).IsZero() {
		t.Error("state write survived revert")
	}
}

func TestStackUnderflowOverflow(t *testing.T) {
	e := newTestEVM()
	addr := deploy(e, NewAsm().Op(ADD).MustAssemble())
	if _, _, err := e.Call(alice, addr, nil, nil, 10_000); !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("err = %v, want ErrStackUnderflow", err)
	}
	over := NewAsm().Label("l").Push(1).Jump("l").MustAssemble()
	addr2 := deploy(e, over)
	if _, _, err := e.Call(alice, addr2, nil, nil, 100_000); !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v, want ErrStackOverflow", err)
	}
}

func TestInvalidOpcode(t *testing.T) {
	e := newTestEVM()
	addr := deploy(e, []byte{0xef})
	if _, _, err := e.Call(alice, addr, nil, nil, 10_000); !errors.Is(err, ErrInvalidOpcode) {
		t.Fatalf("err = %v, want ErrInvalidOpcode", err)
	}
}

func TestPlainTransfer(t *testing.T) {
	e := newTestEVM()
	if _, _, err := e.Call(alice, bob, nil, big.NewInt(500), 21_000); err != nil {
		t.Fatal(err)
	}
	if got := e.State.GetBalance(bob); got.Int64() != 500 {
		t.Errorf("bob balance = %v", got)
	}
	if _, _, err := e.Call(bob, alice, nil, big.NewInt(501), 21_000); !errors.Is(err, ErrInsufficientBalance) {
		t.Fatalf("overdraft err = %v", err)
	}
}

func TestCallTransfersValueAndReturnsData(t *testing.T) {
	e := newTestEVM()
	callee := deploy(e, returnTop(func(a *Asm) { a.Op(CALLVALUE) }))
	// Caller contract forwards 123 wei and returns the callee's output.
	caller := types.HexToAddress("0xca11e4")
	a := NewAsm()
	a.Push(32).Push(0) // outSize, outOff
	a.Push(0).Push(0)  // inSize, inOff
	a.Push(123)        // value
	a.PushAddr(callee) // to
	a.Push(100_000)    // gas
	a.Op(CALL).Op(POP)
	a.Push(32).Push(0).Op(RETURN)
	e.State.SetCode(caller, a.MustAssemble())
	e.State.AddBalance(caller, big.NewInt(1000))

	ret, _, err := e.Call(alice, caller, nil, nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if new(big.Int).SetBytes(ret).Int64() != 123 {
		t.Errorf("forwarded CALLVALUE = %x, want 123", ret)
	}
	if got := e.State.GetBalance(callee); got.Int64() != 123 {
		t.Errorf("callee balance = %v", got)
	}
}

func TestFailedInnerCallDoesNotAbortCaller(t *testing.T) {
	e := newTestEVM()
	reverter := deploy(e, NewAsm().Push(0).Push(0).Op(REVERT).MustAssemble())
	caller := types.HexToAddress("0xca11e4")
	a := NewAsm()
	a.Push(0).Push(0).Push(0).Push(0).Push(0)
	a.PushAddr(reverter)
	a.Push(50_000)
	a.Op(CALL) // pushes 0 on failure
	a.Push(0).Op(MSTORE).Push(32).Push(0).Op(RETURN)
	e.State.SetCode(caller, a.MustAssemble())
	ret, _, err := e.Call(alice, caller, nil, nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if new(big.Int).SetBytes(ret).Sign() != 0 {
		t.Errorf("CALL success flag = %x, want 0", ret)
	}
}

func TestCallDepthLimit(t *testing.T) {
	e := newTestEVM()
	self := types.HexToAddress("0x5e1f")
	// Contract that calls itself forever; 63/64 gas retention plus the
	// depth limit must terminate it without error at the top level.
	a := NewAsm()
	a.Push(0).Push(0).Push(0).Push(0).Push(0)
	a.PushAddr(self)
	a.Op(GAS)
	a.Op(CALL).Op(POP).Op(STOP)
	e.State.SetCode(self, a.MustAssemble())
	if _, _, err := e.Call(alice, self, nil, nil, 10_000_000); err != nil {
		t.Fatalf("self-recursive call failed at top level: %v", err)
	}
}

func TestSha3Opcode(t *testing.T) {
	// keccak256 of 32 zero bytes.
	code := NewAsm().
		Push(32).Push(0).Op(SHA3).
		Push(0).Op(MSTORE).Push(32).Push(0).Op(RETURN).MustAssemble()
	got := runReturning(t, code)
	want := types.HexToHash("0x290decd9548b62a8d60345a988386fc84ba6bc95484008f6362f93160ef3e563")
	if types.BytesToHash(got.Bytes()) != want {
		t.Errorf("SHA3(zero32) = %x, want %s", got, want)
	}
}

func TestCreateDeploysRuntimeCode(t *testing.T) {
	e := newTestEVM()
	runtime := returnTop(func(a *Asm) { a.Push(7) })
	// Init code: write the runtime into memory word by word, return it.
	init := NewAsm()
	padded := make([]byte, (len(runtime)+31)/32*32)
	copy(padded, runtime)
	for i := 0; i < len(padded); i += 32 {
		init.PushBytes(padded[i : i+32]).Push(uint64(i)).Op(MSTORE)
	}
	init.Push(uint64(len(runtime))).Push(0).Op(RETURN)

	addr, _, err := e.Create(alice, init.MustAssemble(), nil, 1_000_000)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	ret, _, err := e.Call(alice, addr, nil, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if new(big.Int).SetBytes(ret).Int64() != 7 {
		t.Errorf("deployed contract returned %x", ret)
	}
}

func TestCreateAddressDeterministic(t *testing.T) {
	a0 := CreateAddress(alice, 0)
	a1 := CreateAddress(alice, 1)
	b0 := CreateAddress(bob, 0)
	if a0 == a1 || a0 == b0 {
		t.Error("create addresses should differ across nonce and creator")
	}
	if a0 != CreateAddress(alice, 0) {
		t.Error("create address not deterministic")
	}
}

func TestChainIDOpcode(t *testing.T) {
	st := state.NewEmpty()
	st.AddBalance(alice, big.NewInt(1_000_000))
	e := New(st, Context{ChainID: 61}) // ETC chain id
	addr := deploy(e, returnTop(func(a *Asm) { a.Op(CHAINID) }))
	ret, _, err := e.Call(alice, addr, nil, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if new(big.Int).SetBytes(ret).Int64() != 61 {
		t.Errorf("CHAINID = %x, want 61", ret)
	}
}

func TestAsmErrors(t *testing.T) {
	if _, err := NewAsm().Jump("nowhere").Assemble(); err == nil {
		t.Error("undefined label should fail")
	}
	if _, err := NewAsm().Label("x").Label("x").Assemble(); err == nil {
		t.Error("duplicate label should fail")
	}
	if _, err := NewAsm().PushBytes(make([]byte, 33)).Assemble(); err == nil {
		t.Error("oversized push should fail")
	}
	if _, err := NewAsm().PushBig(big.NewInt(-1)).Assemble(); err == nil {
		t.Error("negative push should fail")
	}
}

func TestOpCodeString(t *testing.T) {
	cases := map[OpCode]string{
		ADD:       "ADD",
		PUSH1:     "PUSH1",
		PUSH32:    "PUSH32",
		DUP1 + 3:  "DUP4",
		SWAP1 + 7: "SWAP8",
		0xfe:      "INVALID(0xfe)",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%#x.String() = %q, want %q", byte(op), got, want)
		}
	}
}

// TestCreateAddressVectors pins contract-address derivation to the
// go-ethereum test vectors.
func TestCreateAddressVectors(t *testing.T) {
	creator := types.HexToAddress("0x970e8128ab834e8eac17ab8e3812f010678cf791")
	cases := map[uint64]string{
		0: "0x333c3310824b7c685133f2bedb2ca4b8b4df633d",
		1: "0x8bda78331c916a08481428e4b07c96d3e916d165",
		2: "0xc9ddedf451bc62ce88bf9292afb13df35b670699",
	}
	for nonce, want := range cases {
		if got := CreateAddress(creator, nonce); got != types.HexToAddress(want) {
			t.Errorf("CreateAddress(nonce %d) = %s, want %s", nonce, got, want)
		}
	}
	// Large nonce exercises the multi-byte RLP path.
	big1 := CreateAddress(creator, 0x1234)
	big2 := CreateAddress(creator, 0x1235)
	if big1 == big2 || big1.IsZero() {
		t.Error("multi-byte nonce derivation broken")
	}
}
