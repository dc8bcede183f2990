package dbfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// errClass buckets an error the way diskdb tells them apart.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, io.EOF):
		return "EOF"
	default:
		return "error"
	}
}

// TestMemFSMatchesOSFS runs one seeded sequence of Open, Append, Truncate,
// ReadAt (negative and past-the-end offsets included), Size and List on a
// MemFS and on an OSFS and requires every result to be identical.
func TestMemFSMatchesOSFS(t *testing.T) {
	names := []string{"seg-000001.log", "seg-000002.log", "other"}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			osfs, err := NewOSFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			media := []FS{NewMemFS(), osfs}
			handles := [2]map[string]File{{}, {}}
			defer func() {
				for _, hs := range handles {
					for _, f := range hs {
						f.Close()
					}
				}
			}()
			r := rand.New(rand.NewSource(seed))
			for step := 0; step < 600; step++ {
				name := names[r.Intn(len(names))]
				op := r.Intn(6)
				var size int64
				if f := handles[0][name]; f != nil {
					size, _ = f.Size()
				}
				data := make([]byte, r.Intn(48))
				r.Read(data)
				off := r.Int63n(size+16) - 4 // a few negative, a few past the end
				trunc := r.Int63n(size + 8)
				buf := make([]byte, r.Intn(40))
				var got [2]string
				for i, m := range media {
					f := handles[i][name]
					if f == nil || op == 0 {
						if f != nil {
							f.Close()
						}
						if f, err = m.Open(name); err != nil {
							t.Fatalf("step %d: Open(%s) on %T: %v", step, name, m, err)
						}
						handles[i][name] = f
					}
					switch op {
					case 0, 1:
						n, err := f.Append(data)
						got[i] = fmt.Sprintf("Append = %d %s", n, errClass(err))
					case 2:
						got[i] = fmt.Sprintf("Truncate(%d) = %s", trunc, errClass(f.Truncate(trunc)))
					case 3:
						p := slices.Clone(buf)
						n, err := f.ReadAt(p, off)
						got[i] = fmt.Sprintf("ReadAt(%d, %d) = %d %x %s", len(p), off, n, p[:max(n, 0)], errClass(err))
					case 4:
						n, err := f.Size()
						got[i] = fmt.Sprintf("Size = %d %s", n, errClass(err))
					case 5:
						list, err := m.List()
						got[i] = fmt.Sprintf("List = %q %s", list, errClass(err))
					}
				}
				if got[0] != got[1] {
					t.Fatalf("step %d on %s:\n MemFS %s\n OSFS  %s", step, name, got[0], got[1])
				}
			}
		})
	}
}

// TestMemFSClosedHandle: like an os.File, a closed handle refuses I/O
// and a second Close, while other handles on the name keep working.
func TestMemFSClosedHandle(t *testing.T) {
	m := NewMemFS()
	f, _ := m.Open("a")
	g, _ := m.Open("a")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append([]byte("x")); err == nil {
		t.Error("Append on a closed handle succeeded")
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); err == nil {
		t.Error("ReadAt on a closed handle succeeded")
	}
	if err := f.Close(); err == nil {
		t.Error("second Close succeeded")
	}
	if _, err := g.Append([]byte("y")); err != nil {
		t.Fatalf("Append on the other handle: %v", err)
	}
}

// TestMemFSConcurrentReadDuringAppend: readers copying the file while a
// writer appends always see a prefix of what was written (run under
// -race to check the locking).
func TestMemFSConcurrentReadDuringAppend(t *testing.T) {
	m := NewMemFS()
	w, _ := m.Open("seg")
	var want []byte
	for i := 0; i < 512; i++ {
		want = append(want, byte(i), byte(i>>8))
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, _ := m.Open("seg")
			defer f.Close()
			for {
				select {
				case <-done:
					return
				default:
				}
				size, _ := f.Size()
				p := make([]byte, size)
				n, err := f.ReadAt(p, 0)
				if err != nil && !errors.Is(err, io.EOF) {
					t.Errorf("ReadAt: %v", err)
					return
				}
				if !bytes.Equal(p[:n], want[:n]) {
					t.Errorf("read %d bytes that are not a prefix of the appends", n)
					return
				}
			}
		}()
	}
	for i := 0; i < len(want); i += 2 {
		if _, err := w.Append(want[i : i+2]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
