package db

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// backends under test: every KV implementation must satisfy the same
// contract.
func backends() map[string]func() KV {
	return map[string]func() KV{
		"mem": func() KV { return NewMemDB() },
	}
}

func TestKVBasicOps(t *testing.T) {
	for name, mk := range backends() {
		t.Run(name, func(t *testing.T) {
			kv := mk()
			if _, ok, _ := kv.Get([]byte("absent")); ok {
				t.Error("Get on empty store returned ok")
			}
			kv.Put([]byte("k1"), []byte("v1"))
			kv.Put([]byte("k2"), []byte("v2"))
			if v, ok, _ := kv.Get([]byte("k1")); !ok || !bytes.Equal(v, []byte("v1")) {
				t.Errorf("Get k1 = %q, %v", v, ok)
			}
			if ok, _ := kv.Has([]byte("k2")); !ok {
				t.Error("Has k2 = false")
			}
			kv.Put([]byte("k1"), []byte("v1b")) // overwrite
			if v, _, _ := kv.Get([]byte("k1")); !bytes.Equal(v, []byte("v1b")) {
				t.Errorf("overwrite lost: %q", v)
			}
			kv.Delete([]byte("k2"))
			if ok, _ := kv.Has([]byte("k2")); ok {
				t.Error("Has after Delete = true")
			}
			kv.Delete([]byte("never-existed")) // no-op must not panic
		})
	}
}

func TestKVBatchAppliesAtomically(t *testing.T) {
	for name, mk := range backends() {
		t.Run(name, func(t *testing.T) {
			kv := mk()
			kv.Put([]byte("stale"), []byte("x"))
			b := kv.NewBatch()
			for i := 0; i < 100; i++ {
				b.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("val%03d", i)))
			}
			b.Delete([]byte("stale"))
			// A later Put of the same key must win over an earlier one.
			b.Put([]byte("key000"), []byte("winner"))
			if b.Len() != 102 {
				t.Errorf("Len = %d, want 102", b.Len())
			}
			// Nothing visible before Write.
			if ok, _ := kv.Has([]byte("key050")); ok {
				t.Error("batched key visible before Write")
			}
			b.Write()
			for i := 1; i < 100; i++ {
				want := []byte(fmt.Sprintf("val%03d", i))
				if v, ok, _ := kv.Get([]byte(fmt.Sprintf("key%03d", i))); !ok || !bytes.Equal(v, want) {
					t.Fatalf("key%03d = %q, %v", i, v, ok)
				}
			}
			if v, _, _ := kv.Get([]byte("key000")); !bytes.Equal(v, []byte("winner")) {
				t.Errorf("in-batch overwrite order violated: %q", v)
			}
			if ok, _ := kv.Has([]byte("stale")); ok {
				t.Error("batched delete not applied")
			}
			if b.Len() != 0 {
				t.Errorf("batch not reset after Write: Len = %d", b.Len())
			}
		})
	}
}

func TestMemDBStatsCounters(t *testing.T) {
	kv := NewMemDB()
	kv.Put([]byte("a"), []byte("1"))
	kv.Get([]byte("a"))      // hit
	kv.Get([]byte("absent")) // miss
	kv.Delete([]byte("a"))
	s := kv.Stats()
	if s.Writes != 1 || s.Reads != 2 || s.Hits != 1 || s.Misses != 1 || s.Deletes != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Entries != 0 {
		t.Errorf("Entries = %d, want 0", s.Entries)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", got)
	}
}

func TestOpenBackends(t *testing.T) {
	if kv, err := Open(Config{}); err != nil || kv == nil {
		t.Fatalf("zero config: %v", err)
	}
	if _, err := Open(Config{Backend: "flux-capacitor"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestConfigValidation pins down the field combinations Open must reject
// with a descriptive error instead of silently ignoring (PR 6 satellite):
// every case names the offending field so a misconfigured run fails loud
// at startup, not after a day of simulation wrote nowhere.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring the error must carry
	}{
		{"mem with datadir", Config{DataDir: "/tmp/x"}, "DataDir"},
		{"explicit mem with datadir", Config{Backend: BackendMem, DataDir: "/tmp/x"}, "DataDir"},
		{"disk without datadir", Config{Backend: BackendDisk}, "DataDir"},
		{"unknown backend", Config{Backend: "flux-capacitor"}, "flux-capacitor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(tc.cfg)
			if err == nil {
				t.Fatalf("Open(%+v) accepted an invalid config", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open(%+v) = %q, want mention of %q", tc.cfg, err, tc.want)
			}
		})
	}

	// The valid shapes must stay valid (disk with a DataDir opens in
	// diskdb's TestOpenThroughDBConfig, where the backend is linked).
	for _, cfg := range []Config{{}, {Backend: BackendMem}} {
		if _, err := Open(cfg); err != nil {
			t.Fatalf("Open(%+v) rejected a valid config: %v", cfg, err)
		}
	}
}

// TestConcurrentAccess is the -race regression test for the default store
// (satellite of ISSUE 2): the old trie.MemDB was documented as shared
// between one committing writer and concurrent p2p readers, so the
// replacement must survive that pattern — plus batch writers — under the
// race detector.
func TestConcurrentAccess(t *testing.T) {
	for name, mk := range map[string]func() KV{
		"mem": func() KV { return NewMemDB() },
	} {
		t.Run(name, func(t *testing.T) {
			kv := mk()
			const (
				writers = 4
				readers = 4
				keys    = 200
			)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < keys; i++ {
						key := []byte(fmt.Sprintf("w%d-k%d", w, i))
						kv.Put(key, []byte{byte(i)})
						if i%3 == 0 {
							b := kv.NewBatch()
							b.Put([]byte(fmt.Sprintf("w%d-b%d", w, i)), []byte{byte(i)})
							b.Delete([]byte(fmt.Sprintf("w%d-k%d", w, i/2)))
							b.Write()
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < keys*writers; i++ {
						key := []byte(fmt.Sprintf("w%d-k%d", i%writers, i%keys))
						kv.Get(key)
						kv.Has(key)
						if i%64 == 0 {
							kv.Stats()
						}
					}
				}(r)
			}
			wg.Wait()
			// Sanity: the last key of each writer survived (never deleted:
			// i/2 < keys for every deleted index).
			for w := 0; w < writers; w++ {
				key := []byte(fmt.Sprintf("w%d-k%d", w, keys-1))
				if ok, _ := kv.Has(key); !ok {
					t.Errorf("writer %d's final key missing", w)
				}
			}
		})
	}
}

// TestBatchAtomicUnderConcurrentReaders is the -race witness that a
// multi-shard batch commits as one unit even while readers are hammering
// the store (PR 6 satellite). The writer commits every generation with
// one batch that puts keyFirst as its first operation and keyLast as its
// last, with filler keys between to spread the batch across shards. Each
// reader loads keyFirst and then keyLast: because keyLast only ever
// advances inside the same atomic batch as keyFirst, the later read must
// never observe an older generation than the earlier one — a torn,
// shard-by-shard application would expose exactly that window.
func TestBatchAtomicUnderConcurrentReaders(t *testing.T) {
	m := NewMemDB()
	keyFirst := []byte("atomic-first")
	keyLast := []byte("atomic-last")

	stop := make(chan struct{})
	torn := make(chan string, 1)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				va, okA, err := m.Get(keyFirst)
				if err != nil || !okA {
					continue // no batch committed yet
				}
				genFirst := binary.BigEndian.Uint64(va)
				vb, okB, err := m.Get(keyLast)
				if err != nil || !okB {
					select {
					case torn <- fmt.Sprintf("keyFirst at gen %d but keyLast missing", genFirst):
					default:
					}
					return
				}
				if genLast := binary.BigEndian.Uint64(vb); genLast < genFirst {
					select {
					case torn <- fmt.Sprintf("torn batch observed: keyFirst gen %d, keyLast gen %d", genFirst, genLast):
					default:
					}
					return
				}
			}
		}()
	}

	for gen := uint64(1); gen <= 2000; gen++ {
		v := binary.BigEndian.AppendUint64(nil, gen)
		b := m.NewBatch()
		b.Put(keyFirst, v)
		for i := 0; i < 6; i++ { // spread the batch across shards
			b.Put([]byte{'f', 'i', 'l', 'l', byte(i)}, v)
		}
		b.Put(keyLast, v)
		if err := b.Write(); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-torn:
		t.Fatal(msg)
	default:
	}
}
