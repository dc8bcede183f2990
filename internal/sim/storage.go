package sim

import (
	"fmt"
	"io"
	"math"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
	"forkwatch/internal/db/diskdb"
	"forkwatch/internal/db/diskdb/faultfile"
	"forkwatch/internal/db/faultkv"
)

// ChainStore is one partition's storage stack, built by OpenChainStore —
// the only place the layers are put together. Outermost to innermost:
//
//	serving (no engine):   backend
//	engine, fault-free:    Coalescer -> backend
//	engine, faults, mem:   Retry -> faultkv -> MemDB
//	engine, faults, disk:  Retry -> diskdb -> faultfile -> OS files
//
// backend is db.Open(sc.Storage) with the partition's ChainDataDir. The
// Coalescer turns a day's block commits into one backend write (the
// engine flushes it at the end of every day); crash recovery needs every
// block durable when MineBlock returns, so a scenario with StorageFaults
// or Crashes gets the injector and a Retry that absorbs its transient
// errors instead. The injector sits where its backend fails: faultkv tears
// logical batches inside the in-memory store, faultfile tears physical
// appends on the medium under diskdb.
//
// Injection pause rule: random injection is off while the stack is built,
// while the caller writes genesis (which has no recovery path — the
// engine switches it on right after), and around every diskdb recovery
// scan (which must see the medium's true bytes). It resumes at those fixed
// points, never on a timer, so a fault timeline replays from its seed.
type ChainStore struct {
	kv      db.KV         // outermost layer
	backend db.KV         // innermost KV; owns the medium's handles
	coal    *db.Coalescer // fault-free engine stack only
	inj     injector      // nil unless the scenario injects faults or crashes
	medium  dbfs.FS       // the files under diskdb when inj is set
	// attempts is the Retry budget, see retryAttempts.
	attempts int
	// dead marks a store WAL recovery could not repair. The chain stops
	// mining — the partition behaves as if its miners departed — while
	// day events keep flowing.
	dead bool
}

// injector is the deterministic crash/arm/journal surface faultkv.KV and
// faultfile.FS share.
type injector interface {
	SetEnabled(on bool)
	Crashed() bool
	WriteOps() uint64
	CrashAtWriteOp(n uint64)
	Reopen()
	JournalLen() int
}

// OpenChainStore opens partition idx's store from sc.Storage (the disk
// backend keeps each chain in its own subdirectory of DataDir). engine
// selects the stack: false gives the bare backend, every write durable
// when it returns, for processes that reopen, probe or follow a chain;
// true gives the simulation engine's stack (see ChainStore), with
// injection off until enable(true).
func OpenChainStore(sc *Scenario, idx int, name string, engine bool) (*ChainStore, error) {
	cfg := sc.Storage
	disk := cfg.Backend == db.BackendDisk
	if disk {
		cfg.DataDir = ChainDataDir(cfg.DataDir, name)
	}
	f := sc.StorageFaults
	f.Seed += int64(idx) // decorrelate the chains' fault streams
	inject := engine && (f.Enabled() || len(sc.Crashes) > 0)
	s := &ChainStore{}
	var err error
	if inject && disk {
		var osfs *dbfs.OSFS
		if osfs, err = dbfs.NewOSFS(cfg.DataDir); err == nil {
			ffs := faultfile.Wrap(osfs, fileFaults(f))
			ffs.SetEnabled(false)
			s.inj, s.medium, s.attempts = ffs, ffs, retryAttempts(f, true)
			err = s.openDisk()
		}
	} else if s.backend, err = db.Open(cfg); err == nil {
		switch {
		case inject:
			fkv := faultkv.Wrap(s.backend, f)
			fkv.SetEnabled(false)
			s.inj, s.attempts = fkv, retryAttempts(f, false)
			s.kv = db.NewRetry(fkv, s.attempts)
		case engine:
			s.coal = db.NewCoalescer(s.backend)
			s.kv = s.coal
		default:
			s.kv = s.backend
		}
	}
	if err != nil {
		return nil, fmt.Errorf("sim: opening %s store: %w", name, err)
	}
	return s, nil
}

// openDisk runs diskdb.Open over the (possibly torn) medium — the
// recovery scan truncates a torn tail and drops uncommitted batch groups —
// closing the handles of the store it replaces.
func (s *ChainStore) openDisk() error {
	if c, ok := s.backend.(io.Closer); ok {
		c.Close()
	}
	d, err := diskdb.Open(s.medium, diskdb.Options{})
	if err != nil {
		return err
	}
	s.backend, s.kv = d, db.NewRetry(d, s.attempts)
	return nil
}

// retryExhaustion bounds the probability that one storage operation fails
// every attempt of its Retry budget on transient faults alone.
const retryExhaustion = 1e-16

// retryAttempts derives the Retry budget from the fault plan: the smallest
// n with p^n <= retryExhaustion, p being the chance one attempt meets a
// transient fault. On mem that is the read or write error rate; on disk a
// read also fails its checksum at the bit-rot rate, and a durable append
// draws the write-error rate twice (Append, then Sync) and the short-write
// rate once.
func retryAttempts(f faultkv.Faults, disk bool) int {
	p := max(f.ReadErrRate, f.WriteErrRate)
	if disk {
		readOK := (1 - f.ReadErrRate) * (1 - f.CorruptRate)
		writeOK := (1 - f.WriteErrRate) * (1 - f.WriteErrRate) * (1 - f.TornBatchRate)
		p = 1 - min(readOK, writeOK)
	}
	if p <= 0 || p >= 1 {
		return 1 // nothing to absorb, or nothing a retry could absorb
	}
	return int(math.Ceil(math.Log(retryExhaustion) / math.Log(p)))
}

// fileFaults translates the scenario's logical fault plan (faultkv rates
// against a KV) into the physical plan the disk medium runs (faultfile
// rates against the file API): read/write error and bit-rot rates carry
// over, and the logical batch-tear rate becomes both a transient
// short-write rate (truncate-repair + retry) and a crashing torn-append
// rate (restart + recovery), so the disk chaos runs exercise strictly
// more failure modes than the mem runs at the same knob settings.
func fileFaults(f faultkv.Faults) faultfile.Faults {
	return faultfile.Faults{
		Seed:           f.Seed,
		ReadErrRate:    f.ReadErrRate,
		WriteErrRate:   f.WriteErrRate,
		ShortWriteRate: f.TornBatchRate,
		TornWriteRate:  f.TornBatchRate,
		CorruptRate:    f.CorruptRate,
		StallEvery:     f.StallEvery,
		Stall:          f.Stall,
	}
}

// KV returns the outermost layer, the store the chain persists through.
// It changes when a crashed disk stack restarts.
func (s *ChainStore) KV() db.KV { return s.kv }

// Close releases the medium. Writes still staged in the Coalescer are
// dropped, not flushed: only a run cut short mid-day has any, and its
// archive then ends at the last whole day. Idempotent, as diskdb's Close is.
func (s *ChainStore) Close() error {
	if c, ok := s.backend.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// CloseStores closes every non-nil stack; the first error wins.
func CloseStores(stores []*ChainStore) error {
	var first error
	for _, s := range stores {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// flush pushes the day's coalesced block commits into the backend.
func (s *ChainStore) flush() error {
	if s.coal == nil {
		return nil
	}
	return s.coal.Flush()
}

// enable toggles random fault injection (armed crashes stay armed).
func (s *ChainStore) enable(on bool) {
	if s.inj != nil {
		s.inj.SetEnabled(on)
	}
}

// crashed reports whether the store's medium is dead and needs a restart.
func (s *ChainStore) crashed() bool { return s.inj != nil && s.inj.Crashed() }

// armCrash arms the injector so the (op+1)-th write from now tears
// mid-commit and kills the store.
func (s *ChainStore) armCrash(op uint64) {
	s.inj.CrashAtWriteOp(s.inj.WriteOps() + 1 + op)
}

// journalLen counts the fault events the injector has recorded.
func (s *ChainStore) journalLen() int {
	if s.inj == nil {
		return 0
	}
	return s.inj.JournalLen()
}

// restart models the node process coming back up over the surviving
// medium: the injector's crash flag clears, and on disk the store is
// reopened with injection paused around the recovery scan. The chain-level
// WAL redo on top (chain.Open over KV()) is the caller's job.
func (s *ChainStore) restart() error {
	s.inj.Reopen()
	if s.medium == nil {
		return nil
	}
	s.inj.SetEnabled(false)
	defer s.inj.SetEnabled(true)
	return s.openDisk()
}
