package keccak

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// Known-answer vectors for legacy Keccak-256 / Keccak-512 (Ethereum
// padding), cross-checked against go-ethereum and the Keccak reference
// implementation.
var kat256 = []struct {
	in  string
	out string
}{
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	{"hello", "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"},
	{"The quick brown fox jumps over the lazy dog",
		"4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
	{"testing", "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02"},
}

var kat512 = []struct {
	in  string
	out string
}{
	{"", "0eab42de4c3ceb9235fc91acffe746b29c29a8c366b7c60e4e67c466f36a4304c00fa9caf9d87976ba469bcbe06713b435f091ef2769fb160cdab33d3670680e"},
	{"abc", "18587dc2ea106b9a1563e32b3312421ca164c7f1f07bc922a9c83d77cea3a1e5d0c69910739025372dc14ac9642629379540c17e2a65b19d77aa511a9d00bb96"},
}

func TestSum256KnownAnswers(t *testing.T) {
	for _, tc := range kat256 {
		got := Sum256([]byte(tc.in))
		if hex.EncodeToString(got[:]) != tc.out {
			t.Errorf("Sum256(%q) = %x, want %s", tc.in, got, tc.out)
		}
	}
}

func TestSum512KnownAnswers(t *testing.T) {
	for _, tc := range kat512 {
		got := Sum512([]byte(tc.in))
		if hex.EncodeToString(got[:]) != tc.out {
			t.Errorf("Sum512(%q) = %x, want %s", tc.in, got, tc.out)
		}
	}
}

// TestWriteChunking verifies the digest is independent of how input is
// split across Write calls, including splits straddling the rate boundary.
func TestWriteChunking(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	want := Sum256(data)
	for _, chunk := range []int{1, 3, 8, 135, 136, 137, 500} {
		h := New256()
		for i := 0; i < len(data); i += chunk {
			end := i + chunk
			if end > len(data) {
				end = len(data)
			}
			h.Write(data[i:end])
		}
		if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
			t.Errorf("chunk=%d digest mismatch: %x vs %x", chunk, got, want)
		}
	}
}

// TestSumDoesNotConsumeState verifies Sum can be called repeatedly and
// interleaved with Write.
func TestSumDoesNotConsumeState(t *testing.T) {
	h := New256()
	h.Write([]byte("ab"))
	first := h.Sum(nil)
	second := h.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("repeated Sum differs: %x vs %x", first, second)
	}
	h.Write([]byte("c"))
	want := Sum256([]byte("abc"))
	if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
		t.Fatalf("Sum after interleaved Write = %x, want %x", got, want)
	}
}

func TestReset(t *testing.T) {
	h := New256()
	h.Write([]byte("garbage"))
	h.Reset()
	h.Write([]byte("abc"))
	want := Sum256([]byte("abc"))
	if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
		t.Fatalf("digest after Reset = %x, want %x", got, want)
	}
}

func TestSizes(t *testing.T) {
	if got := New256().Size(); got != 32 {
		t.Errorf("New256().Size() = %d, want 32", got)
	}
	if got := New512().Size(); got != 64 {
		t.Errorf("New512().Size() = %d, want 64", got)
	}
	if got := New256().BlockSize(); got != 136 {
		t.Errorf("New256().BlockSize() = %d, want 136", got)
	}
	if got := New512().BlockSize(); got != 72 {
		t.Errorf("New512().BlockSize() = %d, want 72", got)
	}
}

// TestQuickDeterministic property: hashing is deterministic and one-shot
// Sum256 matches the streaming writer for arbitrary inputs.
func TestQuickDeterministic(t *testing.T) {
	f := func(data []byte) bool {
		one := Sum256(data)
		h := New256()
		h.Write(data)
		return bytes.Equal(one[:], h.Sum(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAvalanche property: flipping one bit of a non-empty input
// changes the digest.
func TestQuickAvalanche(t *testing.T) {
	f := func(data []byte, pos uint16) bool {
		if len(data) == 0 {
			return true
		}
		orig := Sum256(data)
		mut := append([]byte(nil), data...)
		mut[int(pos)%len(mut)] ^= 1
		flipped := Sum256(mut)
		return orig != flipped
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSum256AllocFree: Sum256 keeps its sponge on the stack, so the plain
// entry point costs no allocation either (the EVM, the state DB and the
// sealer call it; Sum256Pooled serves trie commits and tx/header
// hashing). An escape here is one allocation on every call.
func TestSum256AllocFree(t *testing.T) {
	for _, n := range []int{32, 100, 600} {
		data := bytes.Repeat([]byte{0xa5}, n)
		var sink [Size256]byte
		if allocs := testing.AllocsPerRun(200, func() { sink = Sum256(data) }); allocs != 0 {
			t.Errorf("Sum256 of %d bytes allocates %.1f/op, want 0", n, allocs)
		}
		_ = sink
	}
}

func BenchmarkSum256_1KiB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}
