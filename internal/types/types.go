// Package types holds the primitive value types shared by every forkwatch
// substrate: 32-byte hashes, 20-byte addresses, hex encoding helpers, and
// big-integer convenience wrappers.
//
// The types mirror their Ethereum counterparts closely enough that the
// analysis layer can join ledgers on transaction hashes exactly as the
// paper's database pipeline does.
package types

import (
	"encoding/hex"
	"math/big"
)

// HashLength is the byte length of a Hash.
const HashLength = 32

// AddressLength is the byte length of an Address.
const AddressLength = 20

// Hash is a 32-byte Keccak-256 digest identifying blocks, transactions and
// trie nodes.
type Hash [HashLength]byte

// Address is a 20-byte account identifier (the low 20 bytes of the
// Keccak-256 hash of a public key, as in Ethereum).
type Address [AddressLength]byte

// BytesToHash converts b to a Hash, left-padding with zeroes when b is
// shorter than 32 bytes and keeping the rightmost 32 bytes when longer.
func BytesToHash(b []byte) Hash {
	var h Hash
	h.SetBytes(b)
	return h
}

// SetBytes sets the hash to the value of b, applying the same padding and
// truncation rules as BytesToHash.
func (h *Hash) SetBytes(b []byte) {
	if len(b) > HashLength {
		b = b[len(b)-HashLength:]
	}
	copy(h[HashLength-len(b):], b)
}

// Bytes returns the hash as a byte slice.
func (h Hash) Bytes() []byte { return h[:] }

// Big returns the hash interpreted as a big-endian unsigned integer.
func (h Hash) Big() *big.Int { return new(big.Int).SetBytes(h[:]) }

// Hex returns the 0x-prefixed hexadecimal encoding of the hash.
func (h Hash) Hex() string { return "0x" + hex.EncodeToString(h[:]) }

// String implements fmt.Stringer, returning the hex encoding.
func (h Hash) String() string { return h.Hex() }

// IsZero reports whether every byte of the hash is zero.
func (h Hash) IsZero() bool { return h == Hash{} }

// HexToHash parses a 0x-prefixed (or bare) hex string into a Hash.
// Short inputs are left-padded; invalid hex yields the zero hash.
func HexToHash(s string) Hash { return BytesToHash(fromHex(s)) }

// BytesToAddress converts b to an Address with the same padding and
// truncation rules as BytesToHash.
func BytesToAddress(b []byte) Address {
	var a Address
	a.SetBytes(b)
	return a
}

// SetBytes sets the address to the value of b.
func (a *Address) SetBytes(b []byte) {
	if len(b) > AddressLength {
		b = b[len(b)-AddressLength:]
	}
	copy(a[AddressLength-len(b):], b)
}

// Bytes returns the address as a byte slice.
func (a Address) Bytes() []byte { return a[:] }

// Hash returns the address left-padded to 32 bytes, as used for trie keys.
func (a Address) Hash() Hash { return BytesToHash(a[:]) }

// Hex returns the 0x-prefixed hexadecimal encoding of the address.
func (a Address) Hex() string { return "0x" + hex.EncodeToString(a[:]) }

// String implements fmt.Stringer, returning the hex encoding.
func (a Address) String() string { return a.Hex() }

// IsZero reports whether every byte of the address is zero.
func (a Address) IsZero() bool { return a == Address{} }

// HexToAddress parses a 0x-prefixed (or bare) hex string into an Address.
func HexToAddress(s string) Address { return BytesToAddress(fromHex(s)) }

func fromHex(s string) []byte {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	if len(s)%2 == 1 {
		s = "0" + s
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil
	}
	return b
}

// Big math helpers. The chain's difficulty arithmetic works on *big.Int so
// nine simulated months of difficulty growth cannot overflow.

// Big constructs a big.Int from an int64.
func Big(v int64) *big.Int { return big.NewInt(v) }

// BigCopy returns a defensive copy of v (nil stays nil).
func BigCopy(v *big.Int) *big.Int {
	if v == nil {
		return nil
	}
	return new(big.Int).Set(v)
}

// BigMax returns the larger of a and b.
func BigMax(a, b *big.Int) *big.Int {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// BigMin returns the smaller of a and b.
func BigMin(a, b *big.Int) *big.Int {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

// BigToFloat64 converts v to a float64. Values that fit in an int64 (every
// realistic difficulty) convert without touching big.Float; larger values
// fall back to the rounding big.Float path.
func BigToFloat64(v *big.Int) float64 {
	if v.IsInt64() {
		return float64(v.Int64())
	}
	f, _ := new(big.Float).SetInt(v).Float64()
	return f
}
