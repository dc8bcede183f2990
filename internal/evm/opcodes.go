package evm

import (
	"fmt"
	"math/big"

	"forkwatch/internal/keccak"
	"forkwatch/internal/types"
)

// OpCode is an EVM instruction byte.
type OpCode byte

// Supported instruction set (Ethereum opcode numbering). PUSH, DUP and
// SWAP name only the ends of their families.
const (
	STOP       OpCode = 0x00
	ADD        OpCode = 0x01
	MUL        OpCode = 0x02
	SUB        OpCode = 0x03
	DIV        OpCode = 0x04
	SDIV       OpCode = 0x05
	MOD        OpCode = 0x06
	SMOD       OpCode = 0x07
	ADDMOD     OpCode = 0x08
	MULMOD     OpCode = 0x09
	EXP        OpCode = 0x0a
	SIGNEXTEND OpCode = 0x0b

	LT     OpCode = 0x10
	GT     OpCode = 0x11
	SLT    OpCode = 0x12
	SGT    OpCode = 0x13
	EQ     OpCode = 0x14
	ISZERO OpCode = 0x15
	AND    OpCode = 0x16
	OR     OpCode = 0x17
	XOR    OpCode = 0x18
	NOT    OpCode = 0x19
	BYTE   OpCode = 0x1a
	SHL    OpCode = 0x1b
	SHR    OpCode = 0x1c
	SAR    OpCode = 0x1d

	SHA3 OpCode = 0x20

	ADDRESS        OpCode = 0x30
	BALANCE        OpCode = 0x31
	ORIGIN         OpCode = 0x32
	CALLER         OpCode = 0x33
	CALLVALUE      OpCode = 0x34
	CALLDATALOAD   OpCode = 0x35
	CALLDATASIZE   OpCode = 0x36
	CALLDATACOPY   OpCode = 0x37
	CODESIZE       OpCode = 0x38
	CODECOPY       OpCode = 0x39
	GASPRICE       OpCode = 0x3a
	RETURNDATASIZE OpCode = 0x3d
	RETURNDATACOPY OpCode = 0x3e

	COINBASE    OpCode = 0x41
	TIMESTAMP   OpCode = 0x42
	NUMBER      OpCode = 0x43
	CHAINID     OpCode = 0x46
	SELFBALANCE OpCode = 0x47

	POP      OpCode = 0x50
	MLOAD    OpCode = 0x51
	MSTORE   OpCode = 0x52
	MSTORE8  OpCode = 0x53
	SLOAD    OpCode = 0x54
	SSTORE   OpCode = 0x55
	JUMP     OpCode = 0x56
	JUMPI    OpCode = 0x57
	PC       OpCode = 0x58
	MSIZE    OpCode = 0x59
	GAS      OpCode = 0x5a
	JUMPDEST OpCode = 0x5b

	PUSH1  OpCode = 0x60
	PUSH32 OpCode = 0x7f
	DUP1   OpCode = 0x80
	DUP16  OpCode = 0x8f
	SWAP1  OpCode = 0x90
	SWAP16 OpCode = 0x9f
	LOG0   OpCode = 0xa0
	LOG1   OpCode = 0xa1
	LOG2   OpCode = 0xa2
	LOG3   OpCode = 0xa3
	LOG4   OpCode = 0xa4

	CREATE       OpCode = 0xf0
	CALL         OpCode = 0xf1
	RETURN       OpCode = 0xf3
	DELEGATECALL OpCode = 0xf4
	REVERT       OpCode = 0xfd
)

// String returns the mnemonic of the opcode.
func (op OpCode) String() string {
	if name := instructions[op].name; name != "" {
		return name
	}
	return fmt.Sprintf("INVALID(0x%02x)", byte(op))
}

// operation is one row of the instruction table. Before exec runs, the
// interpreter checks that the stack holds pops items and has room for
// pushes in their place, charges gas and moves pc past the opcode byte.
// exec then pops without checks and charges only dynamic gas. (DUPn and
// SWAPn read items they leave in place: they count them in both.)
type operation struct {
	name         string
	gas          uint64
	pops, pushes int
	exec         execFunc
}

type execFunc func(e *EVM, f *frame) error

// instructions is the instruction set; a row left zero is an invalid
// opcode. It is filled in init because the CALL and CREATE bodies re-enter
// the interpreter loop, which reads it.
var instructions [256]operation

func init() {
	instructions = [256]operation{
		STOP:       {"STOP", 0, 0, 0, func(_ *EVM, f *frame) error { f.halt(nil); return nil }},
		ADD:        {"ADD", GasFastestStep, 2, 1, arith((*big.Int).Add)},
		MUL:        {"MUL", GasFastStep, 2, 1, arith((*big.Int).Mul)},
		SUB:        {"SUB", GasFastestStep, 2, 1, arith((*big.Int).Sub)},
		DIV:        {"DIV", GasFastStep, 2, 1, arith(nonzero((*big.Int).Div))},
		SDIV:       {"SDIV", GasFastStep, 2, 1, arith(signedArgs(nonzero((*big.Int).Quo)))},
		MOD:        {"MOD", GasFastStep, 2, 1, arith(nonzero((*big.Int).Mod))},
		SMOD:       {"SMOD", GasFastStep, 2, 1, arith(signedArgs(nonzero((*big.Int).Rem)))},
		ADDMOD:     {"ADDMOD", GasMidStep, 3, 1, modular((*big.Int).Add)},
		MULMOD:     {"MULMOD", GasMidStep, 3, 1, modular((*big.Int).Mul)},
		EXP:        {"EXP", GasSlowStep, 2, 1, opExp},
		SIGNEXTEND: {"SIGNEXTEND", GasFastStep, 2, 1, arith(signExtend)},

		LT:     {"LT", GasFastestStep, 2, 1, arith(less)},
		GT:     {"GT", GasFastestStep, 2, 1, arith(greater)},
		SLT:    {"SLT", GasFastStep, 2, 1, arith(signedArgs(less))},
		SGT:    {"SGT", GasFastStep, 2, 1, arith(signedArgs(greater))},
		EQ:     {"EQ", GasFastestStep, 2, 1, arith(equal)},
		ISZERO: {"ISZERO", GasFastestStep, 1, 1, unary(func(z, x *big.Int) *big.Int { return setBool(z, x.Sign() == 0) })},
		AND:    {"AND", GasFastestStep, 2, 1, arith((*big.Int).And)},
		OR:     {"OR", GasFastestStep, 2, 1, arith((*big.Int).Or)},
		XOR:    {"XOR", GasFastestStep, 2, 1, arith((*big.Int).Xor)},
		NOT:    {"NOT", GasFastestStep, 1, 1, unary(func(z, x *big.Int) *big.Int { return z.Xor(x, tt256m1) })},
		BYTE:   {"BYTE", GasFastestStep, 2, 1, arith(byteAt)},
		SHL:    {"SHL", GasFastestStep, 2, 1, arith(func(z, s, v *big.Int) *big.Int { return z.Lsh(v, shiftBy(s)) })},
		SHR:    {"SHR", GasFastestStep, 2, 1, arith(func(z, s, v *big.Int) *big.Int { return z.Rsh(v, shiftBy(s)) })},
		SAR:    {"SAR", GasFastestStep, 2, 1, arith(func(z, s, v *big.Int) *big.Int { return z.Rsh(signed(v), shiftBy(s)) })},

		SHA3: {"SHA3", GasSha3, 2, 1, opSha3},

		ADDRESS:        {"ADDRESS", GasQuickStep, 0, 1, env(func(_ *EVM, f *frame) *big.Int { return addrBig(f.address) })},
		BALANCE:        {"BALANCE", GasBalance, 1, 1, func(e *EVM, f *frame) error { f.push(e.State.GetBalance(bigAddr(f.pop()))); return nil }},
		ORIGIN:         {"ORIGIN", GasQuickStep, 0, 1, env(func(e *EVM, _ *frame) *big.Int { return addrBig(e.Ctx.Origin) })},
		CALLER:         {"CALLER", GasQuickStep, 0, 1, env(func(_ *EVM, f *frame) *big.Int { return addrBig(f.caller) })},
		CALLVALUE:      {"CALLVALUE", GasQuickStep, 0, 1, env(func(_ *EVM, f *frame) *big.Int { return new(big.Int).Set(f.value) })},
		CALLDATALOAD:   {"CALLDATALOAD", GasFastestStep, 1, 1, opCalldataload},
		CALLDATASIZE:   {"CALLDATASIZE", GasQuickStep, 0, 1, env(func(_ *EVM, f *frame) *big.Int { return lenBig(f.input) })},
		CALLDATACOPY:   {"CALLDATACOPY", GasFastestStep, 3, 0, copyFrom(func(f *frame) []byte { return f.input })},
		CODESIZE:       {"CODESIZE", GasQuickStep, 0, 1, env(func(_ *EVM, f *frame) *big.Int { return lenBig(f.code) })},
		CODECOPY:       {"CODECOPY", GasFastestStep, 3, 0, copyFrom(func(f *frame) []byte { return f.code })},
		GASPRICE:       {"GASPRICE", GasQuickStep, 0, 1, env(opGasprice)},
		RETURNDATASIZE: {"RETURNDATASIZE", GasQuickStep, 0, 1, env(func(_ *EVM, f *frame) *big.Int { return lenBig(f.returnData) })},
		RETURNDATACOPY: {"RETURNDATACOPY", GasFastestStep, 3, 0, copyFrom(func(f *frame) []byte { return f.returnData })},

		COINBASE:    {"COINBASE", GasQuickStep, 0, 1, env(func(e *EVM, _ *frame) *big.Int { return addrBig(e.Ctx.Coinbase) })},
		TIMESTAMP:   {"TIMESTAMP", GasQuickStep, 0, 1, env(func(e *EVM, _ *frame) *big.Int { return new(big.Int).SetUint64(e.Ctx.Timestamp) })},
		NUMBER:      {"NUMBER", GasQuickStep, 0, 1, env(func(e *EVM, _ *frame) *big.Int { return new(big.Int).Set(e.Ctx.BlockNumber) })},
		CHAINID:     {"CHAINID", GasQuickStep, 0, 1, env(func(e *EVM, _ *frame) *big.Int { return new(big.Int).SetUint64(e.Ctx.ChainID) })},
		SELFBALANCE: {"SELFBALANCE", GasQuickStep, 0, 1, env(func(e *EVM, f *frame) *big.Int { return e.State.GetBalance(f.address) })},

		POP:      {"POP", GasQuickStep, 1, 0, func(_ *EVM, f *frame) error { f.pop(); return nil }},
		MLOAD:    {"MLOAD", GasFastestStep, 1, 1, opMload},
		MSTORE:   {"MSTORE", GasFastestStep, 2, 0, opMstore},
		MSTORE8:  {"MSTORE8", GasFastestStep, 2, 0, opMstore8},
		SLOAD:    {"SLOAD", GasSload, 1, 1, opSload},
		SSTORE:   {"SSTORE", 0, 2, 0, opSstore},
		JUMP:     {"JUMP", GasMidStep, 1, 0, func(_ *EVM, f *frame) error { return f.jump(f.pop()) }},
		JUMPI:    {"JUMPI", GasMidStep, 2, 0, opJumpi},
		PC:       {"PC", GasQuickStep, 0, 1, env(func(_ *EVM, f *frame) *big.Int { return new(big.Int).SetUint64(f.pc - 1) })},
		MSIZE:    {"MSIZE", GasQuickStep, 0, 1, env(func(_ *EVM, f *frame) *big.Int { return lenBig(f.mem) })},
		GAS:      {"GAS", GasQuickStep, 0, 1, env(func(_ *EVM, f *frame) *big.Int { return new(big.Int).SetUint64(f.gas) })},
		JUMPDEST: {"JUMPDEST", 1, 0, 0, func(*EVM, *frame) error { return nil }},

		CREATE:       {"CREATE", GasCreate, 3, 1, opCreate},
		CALL:         {"CALL", GasCall, 7, 1, opCall},
		RETURN:       {"RETURN", 0, 2, 0, opReturn},
		DELEGATECALL: {"DELEGATECALL", GasCall, 6, 1, opDelegateCall},
		REVERT:       {"REVERT", 0, 2, 0, opRevert},
	}
	// The four families: one row each, expanded over their members.
	for n := 1; n <= 32; n++ {
		instructions[PUSH1+OpCode(n-1)] = operation{fmt.Sprintf("PUSH%d", n), GasFastestStep, 0, 1, opPush(uint64(n))}
	}
	for n := 1; n <= 16; n++ {
		instructions[DUP1+OpCode(n-1)] = operation{fmt.Sprintf("DUP%d", n), GasFastestStep, n, n + 1, opDup(n)}
	}
	for n := 1; n <= 16; n++ {
		instructions[SWAP1+OpCode(n-1)] = operation{fmt.Sprintf("SWAP%d", n), GasFastestStep, n + 1, n + 1, opSwap(n)}
	}
	for n := 0; n <= 4; n++ {
		instructions[LOG0+OpCode(n)] = operation{fmt.Sprintf("LOG%d", n), GasLog * uint64(1+n), 2 + n, 0, opLog(n)}
	}
}

// Pure arithmetic. Each function sets and returns z, a fresh integer; the
// operands are never written.

// arith is the body of a two-operand opcode: it pops x, then y, and pushes
// fn(z, x, y) reduced mod 2^256.
func arith(fn func(z, x, y *big.Int) *big.Int) execFunc {
	return func(_ *EVM, f *frame) error {
		x, y := f.pop(), f.pop()
		f.push(u256(fn(new(big.Int), x, y)))
		return nil
	}
}

// unary is the body of a one-operand opcode.
func unary(fn func(z, x *big.Int) *big.Int) execFunc {
	return func(_ *EVM, f *frame) error {
		f.push(fn(new(big.Int), f.pop()))
		return nil
	}
}

// nonzero makes a division yield 0 for a zero divisor, as the EVM does.
func nonzero(div func(z, x, y *big.Int) *big.Int) func(z, x, y *big.Int) *big.Int {
	return func(z, x, y *big.Int) *big.Int {
		if y.Sign() == 0 {
			return z
		}
		return div(z, x, y)
	}
}

// signedArgs reads both operands as two's-complement; arith's final
// reduction wraps a negative result back into 256 bits.
func signedArgs(fn func(z, x, y *big.Int) *big.Int) func(z, x, y *big.Int) *big.Int {
	return func(z, x, y *big.Int) *big.Int { return fn(z, signed(x), signed(y)) }
}

// signed interprets v as a two's-complement 256-bit integer.
func signed(v *big.Int) *big.Int {
	if v.Bit(255) == 1 {
		return new(big.Int).Sub(v, tt256)
	}
	return v
}

func less(z, x, y *big.Int) *big.Int    { return setBool(z, x.Cmp(y) < 0) }
func greater(z, x, y *big.Int) *big.Int { return setBool(z, x.Cmp(y) > 0) }
func equal(z, x, y *big.Int) *big.Int   { return setBool(z, x.Cmp(y) == 0) }

func setBool(z *big.Int, b bool) *big.Int {
	if b {
		return z.SetUint64(1)
	}
	return z
}

// modular is ADDMOD/MULMOD: it pops x, y and m and pushes fn(x, y) mod m,
// or 0 when m is 0.
func modular(fn func(z, x, y *big.Int) *big.Int) execFunc {
	return func(_ *EVM, f *frame) error {
		x, y, m := f.pop(), f.pop(), f.pop()
		z := new(big.Int)
		if m.Sign() != 0 {
			fn(z, x, y).Mod(z, m)
		}
		f.push(z)
		return nil
	}
}

// opExp charges 10 gas per exponent byte on top of the row's 10
// (Homestead's pricing shape).
func opExp(_ *EVM, f *frame) error {
	base, exp := f.pop(), f.pop()
	if err := f.useGas(GasSlowStep * uint64((exp.BitLen()+7)/8)); err != nil {
		return err
	}
	f.push(new(big.Int).Exp(base, exp, tt256))
	return nil
}

// signExtend extends the sign bit of byte back (0 = least significant) of
// val through the high bytes; back ≥ 31 leaves val unchanged.
func signExtend(z, back, val *big.Int) *big.Int {
	if !back.IsUint64() || back.Uint64() >= 31 {
		return z.Set(val)
	}
	bit := uint(back.Uint64()*8 + 7)
	mask := new(big.Int).Lsh(big.NewInt(1), bit+1)
	mask.Sub(mask, big.NewInt(1))
	if val.Bit(int(bit)) == 1 {
		return z.Or(val, mask.Xor(tt256m1, mask))
	}
	return z.And(val, mask)
}

// byteAt is BYTE: byte i of v counted from the most significant end of
// its 32-byte word, or 0 for i ≥ 32.
func byteAt(z, i, v *big.Int) *big.Int {
	if !i.IsUint64() || i.Uint64() >= 32 {
		return z
	}
	return z.SetUint64(z.Rsh(v, uint(8*(31-i.Uint64()))).Uint64() & 0xff)
}

// shiftBy caps a shift amount at 256, past which every bit is gone.
func shiftBy(s *big.Int) uint {
	if !s.IsUint64() || s.Uint64() > 256 {
		return 256
	}
	return uint(s.Uint64())
}

// Environment.

// env is the body of an opcode that pushes one value read from the frame
// or the block context.
func env(fn func(e *EVM, f *frame) *big.Int) execFunc {
	return func(e *EVM, f *frame) error {
		f.push(fn(e, f))
		return nil
	}
}

func addrBig(a types.Address) *big.Int { return new(big.Int).SetBytes(a.Bytes()) }
func bigAddr(v *big.Int) types.Address { return types.BytesToAddress(v.Bytes()) }
func lenBig(b []byte) *big.Int         { return new(big.Int).SetUint64(uint64(len(b))) }

func opGasprice(e *EVM, _ *frame) *big.Int {
	if e.Ctx.GasPrice == nil {
		return new(big.Int)
	}
	return new(big.Int).Set(e.Ctx.GasPrice)
}

// opCalldataload pushes the 32 input bytes at the popped offset; bytes
// past the end of the input read as zero, whatever the offset.
func opCalldataload(_ *EVM, f *frame) error {
	var word [32]byte
	if off := f.pop(); off.IsUint64() && off.Uint64() < uint64(len(f.input)) {
		copy(word[:], f.input[off.Uint64():])
	}
	f.push(new(big.Int).SetBytes(word[:]))
	return nil
}

// Memory and storage.

var (
	big1  = big.NewInt(1)
	big32 = big.NewInt(32)
)

// words is the number of 32-byte words size bytes span. Callers have
// grown memory over size bytes, so it fits.
func words(size *big.Int) uint64 { return (size.Uint64() + 31) / 32 }

// opSha3 hashes a memory range at GasSha3Word a word.
func opSha3(_ *EVM, f *frame) error {
	off, size := f.pop(), f.pop()
	data, err := f.memory(off, size)
	if err != nil {
		return err
	}
	if err := f.useGas(GasSha3Word * words(size)); err != nil {
		return err
	}
	h := keccak.Sum256(data)
	f.push(new(big.Int).SetBytes(h[:]))
	return nil
}

// copyFrom is the body of CODECOPY, CALLDATACOPY and RETURNDATACOPY: it
// pops the memory offset, the source offset and the size, charges
// GasCopyWord a word and copies, zero-filling past the source's end.
func copyFrom(src func(f *frame) []byte) execFunc {
	return func(_ *EVM, f *frame) error {
		memOff, srcOff, size := f.pop(), f.pop(), f.pop()
		dst, err := f.memory(memOff, size)
		if err != nil {
			return err
		}
		if err := f.useGas(GasCopyWord * words(size)); err != nil {
			return err
		}
		n := 0
		if s := src(f); srcOff.IsUint64() && srcOff.Uint64() < uint64(len(s)) {
			n = copy(dst, s[srcOff.Uint64():])
		}
		clear(dst[n:])
		return nil
	}
}

func opMload(_ *EVM, f *frame) error {
	word, err := f.memory(f.pop(), big32)
	if err != nil {
		return err
	}
	f.push(new(big.Int).SetBytes(word))
	return nil
}

func opMstore(_ *EVM, f *frame) error {
	off, v := f.pop(), f.pop()
	word, err := f.memory(off, big32)
	if err != nil {
		return err
	}
	v.FillBytes(word)
	return nil
}

func opMstore8(_ *EVM, f *frame) error {
	off, v := f.pop(), f.pop()
	b, err := f.memory(off, big1)
	if err != nil {
		return err
	}
	b[0] = byte(v.Uint64())
	return nil
}

func opSload(e *EVM, f *frame) error {
	key := types.BytesToHash(f.pop().Bytes())
	f.push(e.State.GetState(f.address, key).Big())
	return nil
}

// opSstore charges GasSstoreSet for turning a zero slot non-zero and
// GasSstoreReset for any other write.
func opSstore(e *EVM, f *frame) error {
	k, v := f.pop(), f.pop()
	key := types.BytesToHash(k.Bytes())
	gas := uint64(GasSstoreReset)
	if e.State.GetState(f.address, key).IsZero() && v.Sign() != 0 {
		gas = GasSstoreSet
	}
	if err := f.useGas(gas); err != nil {
		return err
	}
	e.State.SetState(f.address, key, types.BytesToHash(v.Bytes()))
	return nil
}

// Control flow.

func opJumpi(_ *EVM, f *frame) error {
	dst, cond := f.pop(), f.pop()
	if cond.Sign() == 0 {
		return nil
	}
	return f.jump(dst)
}

// opPush pushes the n bytes after the opcode; data cut short by the end of
// the code is right-padded with zeros, as Ethereum does.
func opPush(n uint64) execFunc {
	return func(_ *EVM, f *frame) error {
		end := min(f.pc+n, uint64(len(f.code)))
		v := new(big.Int).SetBytes(f.code[f.pc:end])
		f.push(v.Lsh(v, uint(8*(f.pc+n-end))))
		f.pc += n
		return nil
	}
}

func opDup(n int) execFunc {
	return func(_ *EVM, f *frame) error {
		f.push(new(big.Int).Set(f.peek(n - 1)))
		return nil
	}
}

func opSwap(n int) execFunc {
	return func(_ *EVM, f *frame) error {
		top := len(f.stack) - 1
		f.stack[top], f.stack[top-n] = f.stack[top-n], f.stack[top]
		return nil
	}
}

// opLog pops a memory range and n topics and records them as a Log, at
// gasLogByte a byte on top of the row's GasLog per topic and one more.
func opLog(n int) execFunc {
	return func(e *EVM, f *frame) error {
		off, size := f.pop(), f.pop()
		data, err := f.memory(off, size)
		if err != nil {
			return err
		}
		if err := f.useGas(gasLogByte * size.Uint64()); err != nil {
			return err
		}
		log := Log{Address: f.address, Data: append([]byte(nil), data...)}
		for i := 0; i < n; i++ {
			log.Topics = append(log.Topics, types.BytesToHash(f.pop().Bytes()))
		}
		e.Logs = append(e.Logs, log)
		return nil
	}
}

func opReturn(_ *EVM, f *frame) error {
	off, size := f.pop(), f.pop()
	out, err := f.memory(off, size)
	if err != nil {
		return err
	}
	f.halt(out) // the frame's memory is not written again
	return nil
}

func opRevert(_ *EVM, f *frame) error {
	off, size := f.pop(), f.pop()
	out, err := f.memory(off, size)
	if err != nil {
		return err
	}
	return fmt.Errorf("%w: %x", ErrRevert, out)
}

// Message calls.

// forward takes the gas a CALL, DELEGATECALL or CREATE hands its callee:
// the request, capped at all but a 64th of what is left (EIP-150 style,
// which keeps runaway recursion bounded).
func (f *frame) forward(request *big.Int) uint64 {
	gas := f.gas - f.gas/64
	if request != nil && request.IsUint64() && request.Uint64() < gas {
		gas = request.Uint64()
	}
	f.gas -= gas
	return gas
}

// opCreate is CREATE: value, then the init code's memory range. It pushes
// the new contract's address, or 0 when the creation fails. The DAO itself
// was a factory contract spawning child DAOs with exactly this opcode.
func opCreate(e *EVM, f *frame) error {
	value, off, size := f.pop(), f.pop(), f.pop()
	code, err := f.memory(off, size)
	if err != nil {
		return err
	}
	addr, left, _ := e.Create(f.address, code, value, f.forward(nil))
	f.gas += left
	f.returnData = nil
	f.push(addrBig(addr)) // the zero address on failure
	return nil
}

// opCall is CALL: gas, address and value, then the input and output
// memory ranges.
func opCall(e *EVM, f *frame) error {
	gas, to, value := f.pop(), f.pop(), f.pop()
	return f.callOut(gas, value, func(input []byte, gas uint64) ([]byte, uint64, error) {
		return e.Call(f.address, bigAddr(to), input, value, gas)
	})
}

// opDelegateCall is DELEGATECALL: gas and a code address, then the input
// and output memory ranges. It runs the other contract's code with this
// frame's address, caller and value — only the code is borrowed — which is
// the library-call primitive.
func opDelegateCall(e *EVM, f *frame) error {
	gas, to := f.pop(), f.pop()
	return f.callOut(gas, nil, func(input []byte, gas uint64) ([]byte, uint64, error) {
		code := e.State.GetCode(bigAddr(to))
		switch {
		case len(code) == 0:
			return nil, gas, nil // delegating to empty code trivially succeeds
		case e.depth >= MaxCallDepth:
			return nil, gas, ErrDepth // refused before running: the gas goes back, as in Call
		}
		return e.enter(e.State.Snapshot(), newFrame(f.caller, f.address, input, f.value, gas, code), false)
	})
}

// callOut is the shared tail of CALL and DELEGATECALL. It pops the input
// and output ranges and grows memory over both, charges GasCallValue when
// value moves, forwards gas (plus CallStipend with value) to call, then
// keeps the callee's output, copies it into the output range on success
// and pushes 1 for success or 0.
//
// Byte ranges cross frames without copies: a callee only reads its input
// and init code, and a frame's output is memory it no longer writes.
func (f *frame) callOut(gasArg, value *big.Int, call func(input []byte, gas uint64) ([]byte, uint64, error)) error {
	inOff, inSize, outOff, outSize := f.pop(), f.pop(), f.pop(), f.pop()
	input, err := f.memory(inOff, inSize)
	if err != nil {
		return err
	}
	out, err := f.memory(outOff, outSize)
	if err != nil {
		return err
	}
	transfers := value != nil && value.Sign() != 0
	if transfers {
		if err := f.useGas(GasCallValue); err != nil {
			return err
		}
	}
	gas := f.forward(gasArg)
	if transfers {
		gas += CallStipend
	}
	ret, left, err := call(input, gas)
	f.gas += left
	f.returnData = ret
	if err == nil {
		clear(out[copy(out, ret):])
	}
	f.push(setBool(new(big.Int), err == nil))
	return nil
}
