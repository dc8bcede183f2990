// Package rlp implements Recursive Length Prefix encoding, Ethereum's
// canonical serialization for blocks, transactions and wire messages.
//
// RLP has exactly two kinds of items: byte strings and lists of items. The
// package models this directly with the Value type rather than reflection:
// decoding yields a Value tree, and every forkwatch structure encodes
// itself explicitly with the append encoders (append.go), which keeps the
// encoding auditable against the Ethereum yellow-paper rules (appendix B)
// and keeps decode errors local and typed. Encoding a Value tree (Encode,
// List, Uint, ...) is the model those encoders are tested against. Split
// and Element reach one item of an encoding without decoding the items
// around it.
//
// Hash identity of transactions — which the paper's echo analysis joins
// on — is the Keccak-256 of this encoding, so the rules here must match
// Ethereum's exactly. The package enforces canonical form on decode
// (minimal length prefixes, no leading zeroes in integers), as real nodes
// do when validating gossip.
package rlp

import (
	"errors"
	"fmt"
	"math/big"
)

// Encoding errors.
var (
	// ErrTruncated reports input that ends before the announced length.
	ErrTruncated = errors.New("rlp: input truncated")
	// ErrCanonical reports a non-minimal or otherwise non-canonical encoding.
	ErrCanonical = errors.New("rlp: non-canonical encoding")
	// ErrType reports an accessor applied to the wrong kind of item.
	ErrType = errors.New("rlp: type mismatch")
	// ErrUintRange reports an integer that does not fit in 64 bits.
	ErrUintRange = errors.New("rlp: integer out of uint64 range")
	// ErrTrailing reports trailing bytes after a complete top-level item.
	ErrTrailing = errors.New("rlp: trailing bytes after value")
	// ErrIndex reports an element index past the end of a list.
	ErrIndex = errors.New("rlp: list index out of range")
)

// Value is a decoded RLP item (or a model one, in tests): a byte string
// when IsList is false, a list of sub-items when true.
type Value struct {
	// IsList distinguishes lists from byte strings.
	IsList bool
	// Str holds the payload of a byte-string item.
	Str []byte
	// Items holds the elements of a list item.
	Items []Value
}

// Bytes wraps a byte string as a Value. The slice is not copied.
func Bytes(b []byte) Value { return Value{Str: b} }

// String wraps a Go string as a Value.
func String(s string) Value { return Value{Str: []byte(s)} }

// Uint encodes u in big-endian with no leading zeroes, per the RLP rule
// that integers are minimal byte strings (zero encodes as the empty
// string).
func Uint(u uint64) Value {
	if u == 0 {
		return Value{Str: []byte{}}
	}
	var buf [8]byte
	n := 0
	for i := 7; i >= 0; i-- {
		buf[7-i] = byte(u >> (8 * uint(i)))
	}
	for n < 8 && buf[n] == 0 {
		n++
	}
	return Value{Str: append([]byte(nil), buf[n:]...)}
}

// BigInt encodes a non-negative big integer as a minimal byte string.
// Negative values panic: RLP has no signed representation and a negative
// quantity reaching the codec is a programming error.
func BigInt(v *big.Int) Value {
	if v == nil {
		return Value{Str: []byte{}}
	}
	if v.Sign() < 0 {
		panic("rlp: cannot encode negative big.Int")
	}
	if v.Sign() == 0 {
		return Value{Str: []byte{}}
	}
	return Value{Str: v.Bytes()}
}

// List wraps items as a list Value.
func List(items ...Value) Value { return Value{IsList: true, Items: items} }

// Bool encodes a boolean as 0 or 1 per Ethereum convention.
func Bool(b bool) Value {
	if b {
		return Uint(1)
	}
	return Uint(0)
}

// AsBytes returns the payload of a byte-string item.
func (v Value) AsBytes() ([]byte, error) {
	if v.IsList {
		return nil, fmt.Errorf("%w: expected bytes, have list", ErrType)
	}
	return v.Str, nil
}

// AsUint decodes the item as a canonical big-endian unsigned integer.
func (v Value) AsUint() (uint64, error) {
	b, err := v.AsBytes()
	if err != nil {
		return 0, err
	}
	if len(b) > 8 {
		return 0, fmt.Errorf("%w: %d bytes", ErrUintRange, len(b))
	}
	if len(b) > 0 && b[0] == 0 {
		return 0, fmt.Errorf("%w: leading zero in integer", ErrCanonical)
	}
	var u uint64
	for _, c := range b {
		u = u<<8 | uint64(c)
	}
	return u, nil
}

// AsBigInt decodes the item as a canonical non-negative big integer.
func (v Value) AsBigInt() (*big.Int, error) {
	b, err := v.AsBytes()
	if err != nil {
		return nil, err
	}
	if len(b) > 0 && b[0] == 0 {
		return nil, fmt.Errorf("%w: leading zero in integer", ErrCanonical)
	}
	return new(big.Int).SetBytes(b), nil
}

// AsBool decodes the item as a boolean (0 or 1).
func (v Value) AsBool() (bool, error) {
	u, err := v.AsUint()
	if err != nil {
		return false, err
	}
	if u > 1 {
		return false, fmt.Errorf("%w: boolean out of range: %d", ErrCanonical, u)
	}
	return u == 1, nil
}

// AsList returns the elements of a list item.
func (v Value) AsList() ([]Value, error) {
	if !v.IsList {
		return nil, fmt.Errorf("%w: expected list, have bytes", ErrType)
	}
	return v.Items, nil
}

// ListOf returns the elements of a list item and checks its arity.
func (v Value) ListOf(n int) ([]Value, error) {
	items, err := v.AsList()
	if err != nil {
		return nil, err
	}
	if len(items) != n {
		return nil, fmt.Errorf("%w: list of %d items, want %d", ErrType, len(items), n)
	}
	return items, nil
}

// Encode serializes v per the RLP rules: the plain reference encoding the
// append encoders are tested against.
func Encode(v Value) []byte {
	if !v.IsList {
		return AppendBytes(nil, v.Str)
	}
	var payload []byte
	for _, item := range v.Items {
		payload = append(payload, Encode(item)...)
	}
	return append(AppendListHeader(nil, len(payload)), payload...)
}

// EncodeList is shorthand for Encode(List(items...)).
func EncodeList(items ...Value) []byte { return Encode(List(items...)) }

func appendString(dst, s []byte) []byte {
	if len(s) == 1 && s[0] < 0x80 {
		return append(dst, s[0])
	}
	dst = appendLength(dst, 0x80, len(s))
	return append(dst, s...)
}

// appendLength writes the RLP length prefix: base+len for short payloads,
// base+55+len(len) followed by the big-endian length for long ones.
func appendLength(dst []byte, base byte, length int) []byte {
	if length <= 55 {
		return append(dst, base+byte(length))
	}
	var lenBuf [8]byte
	n := 0
	for i := 7; i >= 0; i-- {
		lenBuf[7-i] = byte(uint64(length) >> (8 * uint(i)))
	}
	for n < 8 && lenBuf[n] == 0 {
		n++
	}
	dst = append(dst, base+55+byte(8-n))
	return append(dst, lenBuf[n:]...)
}

// Decode parses exactly one top-level item from data and rejects trailing
// bytes. Use DecodePrefix for streaming.
func Decode(data []byte) (Value, error) {
	v, rest, err := DecodePrefix(data)
	if err != nil {
		return Value{}, err
	}
	if len(rest) != 0 {
		return Value{}, fmt.Errorf("%w: %d bytes", ErrTrailing, len(rest))
	}
	return v, nil
}

// DecodePrefix parses one item from the front of data and returns the
// remainder. Decoded byte strings alias the input buffer.
func DecodePrefix(data []byte) (Value, []byte, error) {
	isList, content, rest, err := Split(data)
	if err != nil {
		return Value{}, nil, err
	}
	if !isList {
		return Value{Str: content}, rest, nil
	}
	items, err := decodeListPayload(content)
	if err != nil {
		return Value{}, nil, err
	}
	return Value{IsList: true, Items: items}, rest, nil
}

// Split reads the header of the item at the front of data, the package's
// one header parser: whether the item is a list, its content (the string
// payload, or the concatenated encodings of the list's elements) and the
// bytes after it. It enforces canonical form on the header but does not
// look inside a list's content, and it allocates nothing unless it fails.
// content and rest alias data.
func Split(data []byte) (isList bool, content, rest []byte, err error) {
	if len(data) == 0 {
		return false, nil, nil, fmt.Errorf("%w: empty input", ErrTruncated)
	}
	tag := data[0]
	switch {
	case tag < 0x80: // single byte, its own encoding
		return false, data[:1], data[1:], nil

	case tag <= 0xb7: // short string
		length := int(tag - 0x80)
		if len(data)-1 < length {
			return false, nil, nil, fmt.Errorf("%w: string of %d bytes", ErrTruncated, length)
		}
		s := data[1 : 1+length]
		if length == 1 && s[0] < 0x80 {
			return false, nil, nil, fmt.Errorf("%w: single byte below 0x80 must encode itself", ErrCanonical)
		}
		return false, s, data[1+length:], nil

	case tag <= 0xbf: // long string
		length, rest, err := decodeLongLength(data, tag-0xb7)
		if err != nil {
			return false, nil, nil, err
		}
		if len(rest) < length {
			return false, nil, nil, fmt.Errorf("%w: string of %d bytes", ErrTruncated, length)
		}
		return false, rest[:length], rest[length:], nil

	case tag <= 0xf7: // short list
		length := int(tag - 0xc0)
		if len(data)-1 < length {
			return false, nil, nil, fmt.Errorf("%w: list of %d bytes", ErrTruncated, length)
		}
		return true, data[1 : 1+length], data[1+length:], nil

	default: // long list
		length, rest, err := decodeLongLength(data, tag-0xf7)
		if err != nil {
			return false, nil, nil, err
		}
		if len(rest) < length {
			return false, nil, nil, fmt.Errorf("%w: list of %d bytes", ErrTruncated, length)
		}
		return true, rest[:length], rest[length:], nil
	}
}

// Element returns the encoding of element i of a list's content (the
// content Split returns for a list), stepping over the i elements before
// it by their headers alone.
func Element(content []byte, i int) ([]byte, error) {
	n := 0
	for ; len(content) > 0; n++ {
		_, _, rest, err := Split(content)
		if err != nil {
			return nil, err
		}
		if n == i {
			return content[:len(content)-len(rest)], nil
		}
		content = rest
	}
	return nil, fmt.Errorf("%w: element %d of a %d-element list", ErrIndex, i, n)
}

// decodeLongLength reads an n-byte big-endian length following the tag and
// enforces canonical form: no leading zero, and the value must exceed 55.
func decodeLongLength(data []byte, n byte) (int, []byte, error) {
	if int(n) > len(data)-1 {
		return 0, nil, fmt.Errorf("%w: length field of %d bytes", ErrTruncated, n)
	}
	lenBytes := data[1 : 1+n]
	if lenBytes[0] == 0 {
		return 0, nil, fmt.Errorf("%w: leading zero in length", ErrCanonical)
	}
	if n > 8 {
		return 0, nil, fmt.Errorf("%w: length field of %d bytes", ErrCanonical, n)
	}
	var length uint64
	for _, c := range lenBytes {
		length = length<<8 | uint64(c)
	}
	if length <= 55 {
		return 0, nil, fmt.Errorf("%w: long form used for short payload", ErrCanonical)
	}
	if length > uint64(int(^uint(0)>>1)) {
		return 0, nil, fmt.Errorf("%w: length %d overflows int", ErrCanonical, length)
	}
	return int(length), data[1+n:], nil
}

func decodeListPayload(payload []byte) ([]Value, error) {
	var items []Value
	for len(payload) > 0 {
		item, rest, err := DecodePrefix(payload)
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		payload = rest
	}
	return items, nil
}
