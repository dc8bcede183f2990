package db

import "fmt"

// Backend names accepted by Config/Open.
const (
	// BackendMem is the sharded in-memory store.
	BackendMem = "mem"
	// BackendDisk is the log-structured file store (internal/db/diskdb).
	// Requires DataDir; the diskdb package must be linked into the binary
	// (it registers itself via RegisterDiskBackend in its init).
	BackendDisk = "disk"
)

// Config selects a storage backend. The zero value means BackendMem.
type Config struct {
	// Backend is one of the Backend* constants; empty selects BackendMem.
	Backend string
	// DataDir is the directory holding BackendDisk's segment files. It is
	// created if missing. Required for disk, rejected for mem.
	DataDir string
}

// openDisk is installed by the diskdb package's init (RegisterDiskBackend):
// the indirection keeps db free of a dependency on its own sub-package.
var openDisk func(Config) (KV, error)

// RegisterDiskBackend installs the opener Open uses for BackendDisk.
// Called from diskdb's init; not for application code.
func RegisterDiskBackend(open func(Config) (KV, error)) { openDisk = open }

// Open constructs the configured store, rejecting a Config whose fields
// would otherwise be silently ignored.
func Open(cfg Config) (KV, error) {
	switch cfg.Backend {
	case "", BackendMem:
		if cfg.DataDir != "" {
			return nil, fmt.Errorf("db: the mem backend is not persistent and takes no DataDir %q (use Backend: %q)", cfg.DataDir, BackendDisk)
		}
		return NewMemDB(), nil
	case BackendDisk:
		if cfg.DataDir == "" {
			return nil, fmt.Errorf("db: the disk backend requires a DataDir")
		}
		if openDisk == nil {
			return nil, fmt.Errorf("db: disk backend not linked (import forkwatch/internal/db/diskdb)")
		}
		return openDisk(cfg)
	default:
		return nil, fmt.Errorf("db: unknown backend %q (known: %q, %q)", cfg.Backend, BackendMem, BackendDisk)
	}
}
