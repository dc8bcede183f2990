package evm

import (
	"fmt"
	"math/big"

	"forkwatch/internal/types"
)

// Asm is a tiny programmatic EVM assembler with label fixups. The example
// contracts (a DAO-like vault with a reentrancy bug, token ledgers) are
// written with it, which keeps their bytecode readable and auditable in
// tests.
//
// Labels are resolved to absolute PUSH2 destinations in a second pass, so
// forward references work:
//
//	a := NewAsm()
//	a.Push(0).Op(CALLDATALOAD)
//	a.JumpI("withdraw")
//	...
//	a.Label("withdraw").Op(JUMPDEST)
type Asm struct {
	code   []byte
	labels map[string]int
	fixups []fixup
	err    error
}

type fixup struct {
	pos   int // offset of the 2-byte destination inside code
	label string
}

// NewAsm returns an empty assembler.
func NewAsm() *Asm {
	return &Asm{labels: make(map[string]int)}
}

// Op appends raw opcodes.
func (a *Asm) Op(ops ...OpCode) *Asm {
	for _, op := range ops {
		a.code = append(a.code, byte(op))
	}
	return a
}

// Push appends the shortest PUSH for v.
func (a *Asm) Push(v uint64) *Asm {
	return a.PushBig(new(big.Int).SetUint64(v))
}

// PushBig appends the shortest PUSH for a non-negative big integer.
func (a *Asm) PushBig(v *big.Int) *Asm {
	if v.Sign() < 0 {
		a.fail(fmt.Errorf("asm: cannot push negative value %v", v))
		return a
	}
	b := v.Bytes()
	if len(b) == 0 {
		b = []byte{0}
	}
	return a.PushBytes(b)
}

// PushBytes appends PUSHn for 1..32 bytes of immediate data.
func (a *Asm) PushBytes(b []byte) *Asm {
	if len(b) == 0 || len(b) > 32 {
		a.fail(fmt.Errorf("asm: push of %d bytes", len(b)))
		return a
	}
	a.code = append(a.code, byte(PUSH1)+byte(len(b)-1))
	a.code = append(a.code, b...)
	return a
}

// PushAddr pushes a 20-byte address.
func (a *Asm) PushAddr(addr types.Address) *Asm { return a.PushBytes(addr.Bytes()) }

// Label binds name to the current position and emits a JUMPDEST.
func (a *Asm) Label(name string) *Asm {
	if _, dup := a.labels[name]; dup {
		a.fail(fmt.Errorf("asm: duplicate label %q", name))
		return a
	}
	a.labels[name] = len(a.code)
	a.code = append(a.code, byte(JUMPDEST))
	return a
}

// PushLabel pushes the (fixed-up) absolute position of a label.
func (a *Asm) PushLabel(name string) *Asm {
	a.code = append(a.code, byte(PUSH1)+1) // PUSH2
	a.fixups = append(a.fixups, fixup{pos: len(a.code), label: name})
	a.code = append(a.code, 0, 0)
	return a
}

// Jump emits an unconditional jump to the label.
func (a *Asm) Jump(name string) *Asm {
	return a.PushLabel(name).Op(JUMP)
}

// JumpI emits a conditional jump to the label, consuming the condition on
// the stack.
func (a *Asm) JumpI(name string) *Asm {
	// Stack on entry: [cond]; PUSH2 dest leaves [cond, dest]; JUMPI pops
	// dest then cond.
	a.code = append(a.code, byte(PUSH1)+1)
	a.fixups = append(a.fixups, fixup{pos: len(a.code), label: name})
	a.code = append(a.code, 0, 0)
	return a.Op(JUMPI)
}

// Assemble resolves labels and returns the bytecode.
func (a *Asm) Assemble() ([]byte, error) {
	if a.err != nil {
		return nil, a.err
	}
	out := append([]byte(nil), a.code...)
	for _, fx := range a.fixups {
		dest, ok := a.labels[fx.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", fx.label)
		}
		if dest > 0xffff {
			return nil, fmt.Errorf("asm: label %q out of PUSH2 range", fx.label)
		}
		out[fx.pos] = byte(dest >> 8)
		out[fx.pos+1] = byte(dest)
	}
	return out, nil
}

// MustAssemble is Assemble panicking on error; for tests and examples.
func (a *Asm) MustAssemble() []byte {
	code, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return code
}

func (a *Asm) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}
