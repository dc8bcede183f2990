// Append-style encoding primitives: the only production encoder. Every
// byte the node writes — transactions, headers, receipts, trie nodes, WAL
// records, wire frames — is built with them; the Value tree in rlp.go is
// the decoder's type and, for encoding, the tests' model. Each Append*
// writes the complete RLP item — prefix included — onto dst, and each
// *Size reports exactly the bytes the matching Append* will write, so
// callers can precompute list payload lengths and serialize a whole
// structure into one buffer; CloseList serves those that would rather
// append a list's items first.
package rlp

import (
	"math/big"
	mathbits "math/bits"
	"sync"
)

// UintSize returns the encoded length of AppendUint(u).
func UintSize(u uint64) int {
	if u < 0x80 {
		return 1 // empty string (u==0) or the byte itself
	}
	return 1 + (mathbits.Len64(u)+7)/8
}

// AppendUint appends the canonical RLP encoding of u (minimal big-endian
// byte string; zero is the empty string).
func AppendUint(dst []byte, u uint64) []byte {
	switch {
	case u == 0:
		return append(dst, 0x80)
	case u < 0x80:
		return append(dst, byte(u))
	default:
		n := (mathbits.Len64(u) + 7) / 8
		dst = append(dst, 0x80+byte(n))
		for i := n - 1; i >= 0; i-- {
			dst = append(dst, byte(u>>(8*uint(i))))
		}
		return dst
	}
}

// BytesSize returns the encoded length of AppendBytes(s).
func BytesSize(s []byte) int {
	if len(s) == 1 && s[0] < 0x80 {
		return 1
	}
	return headSize(len(s)) + len(s)
}

// AppendBytes appends the RLP encoding of the byte string s.
func AppendBytes(dst, s []byte) []byte { return appendString(dst, s) }

// BigIntSize returns the encoded length of AppendBigInt(v).
func BigIntSize(v *big.Int) int {
	if v == nil || v.Sign() == 0 {
		return 1
	}
	n := (v.BitLen() + 7) / 8
	if n == 1 && v.Bits()[0] < 0x80 {
		return 1
	}
	return headSize(n) + n
}

// AppendBigInt appends the canonical RLP encoding of a non-negative big
// integer without materializing v.Bytes(): the minimal big-endian bytes
// are emitted straight from the word representation.
func AppendBigInt(dst []byte, v *big.Int) []byte {
	if v == nil || v.Sign() == 0 {
		return append(dst, 0x80)
	}
	if v.Sign() < 0 {
		panic("rlp: cannot encode negative big.Int")
	}
	const wordBytes = mathbits.UintSize / 8
	words := v.Bits()
	n := (v.BitLen() + 7) / 8
	if n == 1 {
		b := byte(words[0])
		if b < 0x80 {
			return append(dst, b)
		}
		return append(dst, 0x81, b)
	}
	dst = appendLength(dst, 0x80, n)
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(words[i/wordBytes]>>(8*uint(i%wordBytes))))
	}
	return dst
}

// headSize is the length of the prefix for a string or list payload of the
// given length (excluding the single-byte string special case, which
// BytesSize handles).
func headSize(payload int) int {
	if payload <= 55 {
		return 1
	}
	n := 1
	for l := payload >> 8; l > 0; l >>= 8 {
		n++
	}
	return 1 + n
}

// ListSize returns the total encoded length of a list whose element
// encodings sum to payload bytes.
func ListSize(payload int) int { return headSize(payload) + payload }

// AppendListHeader appends the list prefix for a payload of the given
// length; the caller then appends exactly payload bytes of encoded items.
func AppendListHeader(dst []byte, payload int) []byte {
	return appendLength(dst, 0xc0, payload)
}

// CloseList turns dst[start:], a run of items already appended, into one
// list item: it inserts the list prefix at start, shifting the items up.
func CloseList(dst []byte, start int) []byte {
	payload := len(dst) - start
	head := headSize(payload)
	dst = append(dst, make([]byte, head)...)
	copy(dst[start+head:], dst[start:start+payload])
	appendLength(dst[start:start], 0xc0, payload) // writes in place: cap covers head
	return dst
}

// StringSize returns the total encoded length (prefix + payload) of a byte
// string of the given payload length in the general header form. The
// single-byte special case (one byte < 0x80 encodes as itself) is the
// caller's to detect; use BytesSize when the bytes are at hand.
func StringSize(payload int) int { return headSize(payload) + payload }

// AppendStringHeader appends the string prefix for a payload of the given
// length; the caller then appends exactly payload bytes. Must not be used
// for the single-byte special case.
func AppendStringHeader(dst []byte, payload int) []byte {
	return appendLength(dst, 0x80, payload)
}

// bufPool recycles encode buffers for transient encode-then-hash uses.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// GetBuf returns a pooled encode buffer with length 0. Release it with
// PutBuf once the encoded bytes are no longer referenced (e.g. after
// hashing); never retain a slice of it past PutBuf.
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuf returns a buffer obtained from GetBuf to the pool. Callers should
// store the (possibly re-grown) slice back through the pointer first so
// capacity growth is kept.
func PutBuf(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}
