package rlp

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the decoder: it must never panic,
// and anything that decodes must re-encode to exactly the same bytes
// (canonical form means decode∘encode is the identity on valid input).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0x80})
	f.Add([]byte{0xc0})
	f.Add([]byte{0x83, 'd', 'o', 'g'})
	f.Add([]byte{0xc8, 0x83, 'c', 'a', 't', 0x83, 'd', 'o', 'g'})
	f.Add([]byte{0xb8, 0x38})
	f.Add([]byte{0xf8, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(v)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not identity: %x -> %x", data, re)
		}
	})
}

// FuzzDecodePrefix exercises the streaming entry point: it must never
// panic, a successful decode must consume a prefix that re-encodes to
// itself, and the typed accessors must return errors — not panic — on
// whatever shape comes back.
func FuzzDecodePrefix(f *testing.F) {
	f.Add([]byte{0x80, 0x01})
	f.Add([]byte{0xc0, 0xc0})
	f.Add([]byte{0x83, 'd', 'o', 'g', 0xff})
	f.Add([]byte{0xf8, 0x01, 0x00})
	f.Add([]byte{0xb8, 0x38, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := DecodePrefix(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest longer than input: %d > %d", len(rest), len(data))
		}
		consumed := data[:len(data)-len(rest)]
		if re := Encode(v); !bytes.Equal(re, consumed) {
			t.Fatalf("prefix not canonical: consumed %x, re-encoded %x", consumed, re)
		}
		// Accessors must never panic, whatever the decoded shape.
		v.AsBytes()
		v.AsUint()
		v.AsBigInt()
		v.AsBool()
		v.AsList()
		v.ListOf(3)
	})
}

// FuzzEncodeRoundTrip drives the encoder with structured inputs: any
// Value we can build must encode to bytes that decode back to an equal
// Value. Nesting depth is derived from the input so lists get covered.
func FuzzEncodeRoundTrip(f *testing.F) {
	f.Add([]byte("dog"), uint64(0), 0)
	f.Add([]byte{}, uint64(1), 2)
	f.Add([]byte{0x80, 0xc0}, uint64(1<<40), 5)
	f.Fuzz(func(t *testing.T, blob []byte, n uint64, depth int) {
		v := List(Bytes(blob), Uint(n))
		for i := 0; i < depth%8; i++ {
			v = List(v, Uint(uint64(i)))
		}
		enc := Encode(v)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("round trip decode failed: %v (enc %x)", err, enc)
		}
		if re := Encode(back); !bytes.Equal(re, enc) {
			t.Fatalf("round trip not stable: %x -> %x", enc, re)
		}
	})
}

// FuzzSplit checks the header reader against the tree decoder. On any
// input they agree on list-ness, content, rest and failure: Split fails
// exactly where DecodePrefix fails on the item's own header, and, since
// Split does not look inside a list, DecodePrefix fails on a list Split
// accepts exactly when an element nested in its content is malformed.
// Element must return each decoded element's encoding, then ErrIndex.
func FuzzSplit(f *testing.F) {
	f.Add([]byte{0x05})
	f.Add([]byte{0x81, 0x05})
	f.Add([]byte{0x83, 'd', 'o', 'g', 0xc0})
	f.Add([]byte{0xc8, 0x83, 'c', 'a', 't', 0x83, 'd', 'o', 'g'})
	f.Add([]byte{0xc2, 0xc1, 0x81})
	f.Add([]byte{0xf8, 0x01, 0x00})
	f.Add([]byte{0xb9, 0x00, 0x38})
	f.Fuzz(func(t *testing.T, data []byte) {
		isList, content, rest, err := Split(data)
		v, vrest, verr := DecodePrefix(data)
		if err != nil {
			if verr == nil || verr.Error() != err.Error() {
				t.Fatalf("Split: %v, DecodePrefix: %v", err, verr)
			}
			return
		}
		if !isList || wellFormed(content) {
			if verr != nil {
				t.Fatalf("Split accepts %x, DecodePrefix: %v", data, verr)
			}
		} else if verr == nil {
			t.Fatalf("DecodePrefix accepts %x with a malformed element", data)
		}
		if verr != nil {
			return
		}
		if v.IsList != isList || !bytes.Equal(vrest, rest) || (!isList && !bytes.Equal(v.Str, content)) {
			t.Fatalf("Split (%v, %x, %x) disagrees with DecodePrefix (%v, %x)", isList, content, rest, v.IsList, vrest)
		}
		if !isList {
			return
		}
		for i, item := range v.Items {
			elem, err := Element(content, i)
			if err != nil || !bytes.Equal(elem, Encode(item)) {
				t.Fatalf("Element(%d) = %x, %v; want %x", i, elem, err, Encode(item))
			}
		}
		if _, err := Element(content, len(v.Items)); !errors.Is(err, ErrIndex) {
			t.Fatalf("Element past the end: %v, want ErrIndex", err)
		}
	})
}

// wellFormed reports whether every item in b, recursively, has a valid
// header: the condition DecodePrefix adds to Split for a list.
func wellFormed(b []byte) bool {
	for len(b) > 0 {
		isList, content, rest, err := Split(b)
		if err != nil || (isList && !wellFormed(content)) {
			return false
		}
		b = rest
	}
	return true
}
