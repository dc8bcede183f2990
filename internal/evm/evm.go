// Package evm implements a compact Ethereum Virtual Machine: a 256-bit
// stack machine with memory, contract storage, gas accounting and nested
// message calls.
//
// The paper's fork was triggered by a contract — the DAO — whose reentrancy
// bug let an attacker drain ~$50M, and Fig 2 (bottom) classifies ledger
// transactions into contract calls vs plain transfers. This package gives
// forkwatch both: contract transactions carry real bytecode executed here,
// and TestDAOReentrancyDrain reproduces the reentrancy drain that motivated
// the hard fork.
//
// The instruction set is the subset needed for realistic
// transfer/withdraw/ledger contracts (arithmetic, comparison, Keccak,
// storage, control flow, logs, CALL with value and stipend semantics,
// DELEGATECALL, CREATE, RETURN/REVERT). It is one table (opcodes.go): each
// row declares an opcode's name, constant gas and stack arity, the
// interpreter loop checks the stack and charges that gas, and the opcode's
// body charges only the dynamic rest. Gas costs follow the Homestead
// schedule in shape (storage writes dominate; calls carry a stipend) with
// simplified, linear memory pricing; DESIGN.md records the substitution.
package evm

import (
	"errors"
	"fmt"
	"math/big"

	"forkwatch/internal/keccak"
	"forkwatch/internal/state"
	"forkwatch/internal/types"
)

// Execution errors. ErrRevert preserves state-refund semantics (remaining
// gas is returned); all other errors consume all gas, as in Ethereum.
var (
	ErrOutOfGas            = errors.New("evm: out of gas")
	ErrStackUnderflow      = errors.New("evm: stack underflow")
	ErrStackOverflow       = errors.New("evm: stack overflow")
	ErrInvalidJump         = errors.New("evm: invalid jump destination")
	ErrInvalidOpcode       = errors.New("evm: invalid opcode")
	ErrRevert              = errors.New("evm: execution reverted")
	ErrDepth               = errors.New("evm: max call depth exceeded")
	ErrInsufficientBalance = errors.New("evm: insufficient balance for transfer")
	ErrGasUintOverflow     = errors.New("evm: gas overflow")
)

// MaxCallDepth bounds nested calls, as in Ethereum (1024).
const MaxCallDepth = 1024

// CallStipend is the free gas given to the callee of a value transfer,
// enough to log but famously enough to re-enter cheap code — the DAO bug.
const CallStipend = 2300

// Gas cost constants (Homestead-shaped, simplified).
const (
	GasQuickStep   = 2
	GasFastestStep = 3
	GasFastStep    = 5
	GasMidStep     = 8
	GasSlowStep    = 10
	GasBalance     = 20
	GasSload       = 50
	GasSstoreSet   = 20000
	GasSstoreReset = 5000
	GasCall        = 40
	GasCallValue   = 9000
	GasCreate      = 32000
	GasMemWord     = 3
	GasSha3        = 30
	GasSha3Word    = 6
	GasLog         = 375
	GasCopyWord    = 3
)

const (
	stackLimit     = 1024
	memoryLimit    = 1 << 32 // bytes; a range ending past it fails
	gasLogByte     = 8
	gasCodeDeposit = 200 // per byte of deployed code
)

// Context carries per-block and per-transaction execution environment.
type Context struct {
	BlockNumber *big.Int
	Timestamp   uint64
	Coinbase    types.Address
	ChainID     uint64
	// Origin is the transaction sender (ORIGIN opcode); GasPrice its
	// gas price (GASPRICE opcode).
	Origin   types.Address
	GasPrice *big.Int
}

// EVM executes message calls against a state.DB.
type EVM struct {
	State *state.DB
	Ctx   Context
	// Logs accumulates LOG0..LOG4 events; entries from reverted frames
	// are discarded. Reset between transactions by the processor.
	Logs  []Log
	depth int
}

// Log is one LOG0..LOG4 event emitted during execution. Logs from
// reverted frames are discarded, as in Ethereum.
type Log struct {
	Address types.Address
	Topics  []types.Hash
	Data    []byte
}

// New returns an EVM bound to the given state and block context.
func New(st *state.DB, ctx Context) *EVM {
	if ctx.BlockNumber == nil {
		ctx.BlockNumber = new(big.Int)
	}
	return &EVM{State: st, Ctx: ctx}
}

// Call runs the code at `to` with the given input, transferring value from
// caller. It returns the output, the gas left, and an error for failed
// executions (whose state effects are rolled back).
func (e *EVM) Call(caller, to types.Address, input []byte, value *big.Int, gas uint64) ([]byte, uint64, error) {
	if e.depth >= MaxCallDepth {
		return nil, gas, ErrDepth
	}
	if value == nil {
		value = new(big.Int)
	}
	if e.State.BalanceCmp(caller, value) < 0 {
		return nil, gas, ErrInsufficientBalance
	}
	snap := e.State.Snapshot()
	e.State.SubBalance(caller, value)
	e.State.AddBalance(to, value)

	code := e.State.GetCode(to)
	if len(code) == 0 {
		return nil, gas, nil // plain transfer
	}
	return e.enter(snap, newFrame(caller, to, input, value, gas, code), false)
}

// Create deploys a contract: runs initCode and installs its return value
// as the contract code at an address derived from caller and nonce.
func (e *EVM) Create(caller types.Address, initCode []byte, value *big.Int, gas uint64) (types.Address, uint64, error) {
	if e.depth >= MaxCallDepth {
		return types.Address{}, gas, ErrDepth
	}
	if value == nil {
		value = new(big.Int)
	}
	if e.State.BalanceCmp(caller, value) < 0 {
		return types.Address{}, gas, ErrInsufficientBalance
	}
	nonce := e.State.GetNonce(caller)
	e.State.SetNonce(caller, nonce+1)
	addr := CreateAddress(caller, nonce)

	snap := e.State.Snapshot()
	e.State.SubBalance(caller, value)
	e.State.AddBalance(addr, value)
	e.State.SetNonce(addr, 1)
	code, left, err := e.enter(snap, newFrame(caller, addr, nil, value, gas, initCode), true)
	if err != nil {
		return types.Address{}, left, err
	}
	e.State.SetCode(addr, code)
	return addr, left, nil
}

// enter runs f one call level deeper: the one path by which Call, Create
// and DELEGATECALL execute code. A failed frame rolls the state back to
// snap and drops the logs it emitted, and every error but REVERT burns
// the frame's gas. A creating frame must also pay for the code it returns
// (200 gas a byte, Ethereum's deposit rate) or it fails out of gas.
func (e *EVM) enter(snap int, f *frame, create bool) ([]byte, uint64, error) {
	mark := len(e.Logs)
	e.depth++
	ret, err := e.run(f)
	e.depth--
	if err == nil && create {
		err = f.useGas(uint64(len(ret)) * gasCodeDeposit)
	}
	if err != nil {
		e.State.RevertToSnapshot(snap)
		e.Logs = e.Logs[:mark]
		if !errors.Is(err, ErrRevert) {
			f.gas = 0
		}
		return nil, f.gas, err
	}
	return ret, f.gas, nil
}

// CreateAddress derives a contract address from creator and nonce, as
// Ethereum does: low 20 bytes of keccak256(rlp([caller, nonce])).
func CreateAddress(caller types.Address, nonce uint64) types.Address {
	// Inline minimal RLP: list of the 20-byte address and the nonce.
	payload := append([]byte{0x80 + 20}, caller.Bytes()...)
	if nonce == 0 {
		payload = append(payload, 0x80)
	} else if nonce < 0x80 {
		payload = append(payload, byte(nonce))
	} else {
		var nb []byte
		for v := nonce; v > 0; v >>= 8 {
			nb = append([]byte{byte(v)}, nb...)
		}
		payload = append(payload, 0x80+byte(len(nb)))
		payload = append(payload, nb...)
	}
	enc := append([]byte{0xc0 + byte(len(payload))}, payload...)
	h := keccak.Sum256(enc)
	return types.BytesToAddress(h[12:])
}

// frame is one execution context: code, stack, memory, gas.
type frame struct {
	caller  types.Address
	address types.Address
	input   []byte
	value   *big.Int
	gas     uint64
	code    []byte

	pc    uint64
	stack []*big.Int
	// mem is the frame's memory; len(mem) is MSIZE, always whole words.
	mem        []byte
	returnData []byte   // output of the frame's last call; CREATE clears it
	out        []byte   // the frame's own output, set by RETURN
	jumpdests  []uint64 // bitset of valid JUMP targets
}

func newFrame(caller, address types.Address, input []byte, value *big.Int, gas uint64, code []byte) *frame {
	f := &frame{
		caller: caller, address: address, input: input, value: value,
		gas: gas, code: code,
		stack:     make([]*big.Int, 0, 32),
		jumpdests: make([]uint64, (len(code)+63)/64),
	}
	// Mark the JUMPDEST bytes, skipping PUSH data.
	for i := 0; i < len(code); i++ {
		if op := OpCode(code[i]); op == JUMPDEST {
			f.jumpdests[i/64] |= 1 << (i % 64)
		} else if op >= PUSH1 && op <= PUSH32 {
			i += int(op-PUSH1) + 1
		}
	}
	return f
}

var tt256 = new(big.Int).Lsh(big.NewInt(1), 256)
var tt256m1 = new(big.Int).Sub(tt256, big.NewInt(1))

func u256(v *big.Int) *big.Int { return v.And(v, tt256m1) }

// The stack accessors do no bounds checks: run checks every opcode's
// arity against its table row before the body runs.
func (f *frame) push(v *big.Int) { f.stack = append(f.stack, v) }

func (f *frame) pop() *big.Int {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

func (f *frame) peek(n int) *big.Int { return f.stack[len(f.stack)-1-n] }

// useGas deducts amount, reporting out-of-gas.
func (f *frame) useGas(amount uint64) error {
	if f.gas < amount {
		return ErrOutOfGas
	}
	f.gas -= amount
	return nil
}

// memory returns the size bytes of memory at off (nil when size is 0),
// first growing memory to cover them at GasMemWord per new word. Memory
// grows by append, so a frame's total copying stays linear in its final
// size; the slack capacity past len is never read or written.
func (f *frame) memory(off, size *big.Int) ([]byte, error) {
	if size.Sign() == 0 {
		return nil, nil
	}
	if !off.IsUint64() || !size.IsUint64() {
		return nil, ErrGasUintOverflow
	}
	start := off.Uint64()
	end := start + size.Uint64()
	if end < start || end > memoryLimit {
		return nil, ErrGasUintOverflow
	}
	if have := uint64(len(f.mem)); end > have {
		words := (end + 31) / 32
		if err := f.useGas((words - have/32) * GasMemWord); err != nil {
			return nil, err
		}
		f.mem = append(f.mem, make([]byte, words*32-have)...)
	}
	return f.mem[start:end], nil
}

// jump moves pc to dst, which must be a JUMPDEST outside PUSH data.
func (f *frame) jump(dst *big.Int) error {
	d := dst.Uint64()
	if !dst.IsUint64() || d >= uint64(len(f.code)) || f.jumpdests[d/64]&(1<<(d%64)) == 0 {
		return fmt.Errorf("%w: pc %v", ErrInvalidJump, dst)
	}
	f.pc = d
	return nil
}

// halt ends the frame with output out: it moves pc past the code.
func (f *frame) halt(out []byte) {
	f.out = out
	f.pc = uint64(len(f.code))
}

// run interprets the frame's code until it halts, fails or runs off the
// end of the code (an implicit STOP). Each step is one table row: the
// loop checks the stack, charges the row's constant gas and moves pc past
// the opcode byte, then the body runs.
func (e *EVM) run(f *frame) ([]byte, error) {
	for f.pc < uint64(len(f.code)) {
		op := OpCode(f.code[f.pc])
		in := &instructions[op]
		switch {
		case in.exec == nil:
			return nil, fmt.Errorf("%w: 0x%02x at pc %d", ErrInvalidOpcode, byte(op), f.pc)
		case len(f.stack) < in.pops:
			return nil, ErrStackUnderflow
		case len(f.stack)-in.pops+in.pushes > stackLimit:
			return nil, ErrStackOverflow
		}
		if err := f.useGas(in.gas); err != nil {
			return nil, err
		}
		f.pc++
		if err := in.exec(e, f); err != nil {
			return nil, err
		}
	}
	return f.out, nil
}
