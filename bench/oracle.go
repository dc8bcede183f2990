package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"forkwatch"
	"forkwatch/internal/rpc"
	"forkwatch/internal/serve"
)

// expectedPath holds, for expectedSeed, what a speed-only change must
// leave identical. Regenerate with -update-expected.
const (
	expectedPath = "expected.json"
	expectedSeed = 1
)

// chainHead is the identity of one partition's ledger.
type chainHead struct {
	Number    uint64 `json:"number"`
	Hash      string `json:"hash"`
	StateRoot string `json:"state_root"`
}

// archiveID is the identity of one built archive: every partition's head
// and the bytes its disk store takes.
type archiveID struct {
	Chains    map[string]chainHead `json:"chains"`
	DiskBytes int64                `json:"disk_bytes"`
}

func (a archiveID) equal(b archiveID) bool {
	if a.DiskBytes != b.DiskBytes || len(a.Chains) != len(b.Chains) {
		return false
	}
	for name, h := range a.Chains {
		if b.Chains[name] != h {
			return false
		}
	}
	return true
}

type expectedFile struct {
	Seed int64 `json:"seed"`
	// Figures maps each RenderFigures file of figures-90d to its SHA-256.
	Figures map[string]string `json:"figures"`
	// Archives maps "dense-6h" and "dense-day" to their identities.
	Archives map[string]archiveID `json:"archives"`
}

// loadExpected reads expected.json; a missing file means no pinned
// expectations (the per-run consistency checks still apply).
func loadExpected() (*expectedFile, error) {
	raw, err := os.ReadFile(expectedPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var e expectedFile
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	return &e, nil
}

// pinned reports whether this run's outputs are pinned by expected.json.
func (rc *runCtx) pinned() bool {
	return rc.expected != nil && !rc.quick && rc.seed == rc.expected.Seed
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// diffFigures names the first figure file whose digest differs.
func diffFigures(want, got map[string]string) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d figure files, want %d", len(got), len(want))
	}
	for _, name := range sortedKeys(want) {
		if got[name] != want[name] {
			return fmt.Sprintf("%s digest %s, want %s", name, got[name], want[name])
		}
	}
	return ""
}

// identify reads a served archive's identity. The disk size is taken by
// the caller once the store is closed.
func identify(res *serve.Result) archiveID {
	id := archiveID{Chains: map[string]chainHead{}}
	for _, c := range res.Chains {
		id.Chains[c.Name] = headOf(c.Ledger.BC)
	}
	return id
}

// updateExpected regenerates expected.json from one run of each pinned
// input at expectedSeed.
func updateExpected() error {
	tmp, err := newTmp("expected")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := expectedFile{Seed: expectedSeed, Figures: map[string]string{}, Archives: map[string]archiveID{}}

	rep, err := forkwatch.Run(forkwatch.NewScenario(expectedSeed, fullScale.figureDays))
	if err != nil {
		return err
	}
	figs, err := forkwatch.RenderFigures(rep)
	if err != nil {
		return err
	}
	for name, body := range figs {
		e.Figures[name] = sha256Hex(body)
	}
	for name, dayLength := range map[string]uint64{"dense-6h": fullScale.denseShort, "dense-day": fullScale.denseDay} {
		dir := filepath.Join(tmp, name)
		res, err := serve.Build(denseScenario(expectedSeed, fullScale, dayLength, diskStorage(dir)), rpc.ServerConfig{})
		if err != nil {
			return err
		}
		id := identify(res)
		res.Close()
		if id.DiskBytes, err = dirBytes(dir); err != nil {
			return err
		}
		e.Archives[name] = id
	}
	enc, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(enc, '\n'), 0o644)
}
