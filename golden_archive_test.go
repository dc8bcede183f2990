package forkwatch_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"forkwatch"
)

const goldenArchivesPath = "testdata/golden_archives.json"

// archiveConfigs are the full-fidelity golden configs whose on-disk
// archives testdata/golden_archives.json pins: the fault-free run and the
// storage-fault and crash run, both at Parallelism 1.
func archiveConfigs() []goldenConfig {
	var out []goldenConfig
	for _, gc := range goldenConfigs() {
		if gc.full {
			out = append(out, gc)
		}
	}
	return out
}

// archiveDigests runs gc on the disk backend and returns the sha256 of
// every file the run leaves in its data directories, keyed by
// "<config>/<path relative to DataDir>".
func archiveDigests(t *testing.T, gc goldenConfig) map[string]string {
	t.Helper()
	sc := gc.scenario()
	sc.Parallelism = 1
	dir := t.TempDir()
	sc.Storage = forkwatch.StorageConfig{Backend: forkwatch.StorageDisk, DataDir: dir}
	eng, err := forkwatch.NewEngine(sc)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	runErr := eng.Run()
	if err := eng.Close(); runErr == nil {
		runErr = err
	}
	if runErr != nil {
		t.Fatalf("%s: %v", gc.name, runErr)
	}
	digests := map[string]string{}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		digests[gc.name+"/"+filepath.ToSlash(rel)] = fmt.Sprintf("%x", sha256.Sum256(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) == 0 {
		t.Fatalf("%s: the run left no files under its data directory", gc.name)
	}
	return digests
}

// TestGoldenArchiveBytes pins the bytes the engine writes: every file of
// the full-fidelity golden runs' disk archives must hash to
// testdata/golden_archives.json. Segment files are append-only, so equal
// bytes mean the same sequence of batches. A change that means to alter
// the archive rewrites the file with
//
//	go test -run TestGoldenArchiveBytes -update .
func TestGoldenArchiveBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity disk archives skipped under -short")
	}
	got := map[string]string{}
	for _, gc := range archiveConfigs() {
		for k, v := range archiveDigests(t, gc) {
			got[k] = v
		}
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenArchivesPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d files)", goldenArchivesPath, len(got))
		return
	}
	raw, err := os.ReadFile(goldenArchivesPath)
	if err != nil {
		t.Fatalf("reading golden archives: %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing golden archives: %v", err)
	}
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		switch w, g := want[k], got[k]; {
		case w == "":
			t.Errorf("%s: written, but absent from %s", k, goldenArchivesPath)
		case g == "":
			t.Errorf("%s: in %s, but not written", k, goldenArchivesPath)
		case w != g:
			t.Errorf("%s: digest %s, want %s", k, g, w)
		}
	}
}
