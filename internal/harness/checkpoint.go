package harness

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"dap/internal/ckpt"
	"dap/internal/store"
	"dap/internal/workload"
)

// Warmup checkpoints: a versioned, checksummed snapshot of the state
// functional warmup leaves behind, keyed by a fingerprint of the warmup
// prefix only. Functional warmup (cpu.Warm → WarmRead/WarmWriteback)
// touches the SRAM hierarchy, the prefetchers, the workload stream cursors
// and the memory-side tag/metadata structures — and nothing else: it never
// advances the engine clock, never issues a timed DRAM request, and never
// consults the partitioning policy. The warmup state of a (config, mix,
// seed) triple therefore depends only on the fields WarmKey hashes, so
// every policy variant of the same figure point (baseline, DAP, SBD, ...)
// resumes from one shared checkpoint instead of re-running the warmup per
// variant.

// WarmKey fingerprints the warmup prefix of a (config, mix, seed) triple:
// the workload (mix name, per-core specs after resizing, stream seed), the
// warmup length, and every geometry knob the functional warmup can observe
// (SRAM hierarchy, prefetcher, memory-side tag structures). Runtime-only
// knobs — policy, DAP parameters, DRAM timing, latencies, observability —
// are deliberately excluded: they cannot influence warmup, and excluding
// them is what lets ablation variants share a checkpoint.
func WarmKey(cfg Config, mix workload.Mix, seed uint64) string {
	specs := mix.Specs
	if len(specs) != cfg.CPU.Cores {
		specs = resize(specs, cfg.CPU.Cores)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "mix=%s seed=%d arch=%s warm=%d", mix.Name, seed, cfg.Arch, cfg.WarmAccesses)
	for _, sp := range specs {
		fmt.Fprintf(h, " spec=%+v", sp)
	}
	c := cfg.CPU
	fmt.Fprintf(h, " cpu=%d l1=%d/%d l2=%d/%d l3=%d/%d pf=%d/%d/%d",
		c.Cores, c.L1Bytes, c.L1Ways, c.L2Bytes, c.L2Ways, c.L3Bytes, c.L3Ways,
		c.PFStreams, c.PFDegree, c.PFDistance)
	switch cfg.Arch {
	case AlloyCache:
		a := cfg.Alloy
		fmt.Fprintf(h, " alloy=%d dbc=%d/%d", a.CapacityBytes, a.DBCEntries, a.DBCWays)
	case SectoredEDRAM:
		e := cfg.EDRAM
		fmt.Fprintf(h, " edram=%d/%d/%d", e.CapacityBytes, e.SectorBytes, e.Ways)
	case NoMSCache:
		// main memory only: no memory-side structures to warm
	default:
		sc := cfg.Sectored
		fmt.Fprintf(h, " sectored=%d/%d/%d tc=%d/%d repl=%v fp=%v/%d",
			sc.CapacityBytes, sc.SectorBytes, sc.Ways,
			sc.TagCacheEntries, sc.TagCacheWays, sc.Replacement,
			sc.Footprint, sc.FootprintEntries)
	}
	return fmt.Sprintf("warm-%016x", h.Sum64())
}

// SaveCheckpoint serializes the state functional warmup leaves behind: the
// cpu section (SRAM caches, prefetchers, stream cursors) and, when the
// system has a memory-side cache, its controller's ctrl.<arch> section. The
// DRAM devices, DAP, SBD and BATMAN act only on timed traffic, so after
// warmup they still hold their freshly built state and are not saved. It
// must be called after Warmup and before the timed region: the engine must
// be at cycle zero and every DRAM device drained.
func (s *System) SaveCheckpoint() ([]byte, error) {
	if now := s.Eng.Now(); now != 0 {
		return nil, fmt.Errorf("harness: checkpoint at cycle %d; must be taken after warmup, before the timed region", now)
	}
	for _, d := range s.devices() {
		if n := d.QueueLen(); n != 0 {
			return nil, fmt.Errorf("harness: checkpoint with %d requests queued at %s; warmup must leave memory drained", n, d.Cfg.Name)
		}
	}
	w := ckpt.NewWriter()
	if err := s.CPU.SaveState(w.Section("cpu")); err != nil {
		return nil, fmt.Errorf("harness: checkpoint cpu: %w", err)
	}
	if name, ctrl := s.ctrlSection(); ctrl != nil {
		ctrl.SaveState(w.Section(name))
	}
	return w.Bytes(), nil
}

// warmCtrl is the checkpoint interface every memory-side controller has.
type warmCtrl interface {
	SaveState(*ckpt.Enc)
	LoadState(*ckpt.Dec) error
}

// ctrlSection returns the memory-side controller and the name of its
// checkpoint section; ctrl is nil for a system without a memory-side cache.
func (s *System) ctrlSection() (name string, ctrl warmCtrl) {
	switch {
	case s.sectored != nil:
		return "ctrl.sectored", s.sectored
	case s.alloy != nil:
		return "ctrl.alloy", s.alloy
	case s.edram != nil:
		return "ctrl.edram", s.edram
	}
	return "", nil
}

// LoadCheckpoint restores a SaveCheckpoint blob into a freshly built,
// reseeded system, leaving it in exactly the state Warmup would have. Every
// component without a section keeps its freshly built state, which is the
// state warmup leaves it in.
func (s *System) LoadCheckpoint(blob []byte) error {
	r, err := ckpt.NewReader(blob)
	if err != nil {
		return err
	}
	d, ok := r.Section("cpu")
	if !ok {
		return fmt.Errorf("harness: checkpoint missing cpu section")
	}
	if err := s.CPU.LoadState(d); err != nil {
		return fmt.Errorf("harness: restore cpu: %w", err)
	}
	name, ctrl := s.ctrlSection()
	if ctrl == nil {
		return nil
	}
	if d, ok = r.Section(name); !ok {
		return fmt.Errorf("harness: checkpoint missing %s section", name)
	}
	if err := ctrl.LoadState(d); err != nil {
		return fmt.Errorf("harness: restore %s: %w", name, err)
	}
	return nil
}

// Checkpoints is the process-wide warmup-checkpoint cache: a single-flight
// in-memory memo (concurrent variants of the same figure point build each
// checkpoint exactly once; the rest wait and restore) optionally backed by
// a crash-safe on-disk store so checkpoints survive across processes. A
// damaged store file is quarantined by the store layer and counted as a
// miss, a stored blob whose checkpoint envelope does not verify (another
// format version) is rebuilt and overwritten, and a blob that fails
// semantic restore is dropped and rebuilt. In the last case the affected
// run discards the half-restored system and warms a fresh one.
type Checkpoints struct {
	st *store.Store // nil = in-memory only

	mu sync.Mutex
	m  map[string]*ckptEntry

	builds    atomic.Uint64
	storeHits atomic.Uint64
	loadFails atomic.Uint64
}

type ckptEntry struct {
	once sync.Once
	blob []byte
	err  error
}

// NewCheckpoints opens a checkpoint cache backed by a store under dir.
func NewCheckpoints(dir string) (*Checkpoints, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Checkpoints{st: st, m: map[string]*ckptEntry{}}, nil
}

// MemCheckpoints returns an in-memory checkpoint cache (no disk store):
// single-flight sharing within one process only.
func MemCheckpoints() *Checkpoints {
	return &Checkpoints{m: map[string]*ckptEntry{}}
}

// CkptStats are the observable cache counters.
type CkptStats struct {
	// Builds counts warmups actually executed to build a checkpoint.
	Builds uint64
	// StoreHits counts checkpoints served from the on-disk store.
	StoreHits uint64
	// LoadFailures counts blobs that failed to restore (the run fell back
	// to a plain warmup and the blob was dropped for rebuild).
	LoadFailures uint64
	// Store carries the underlying store counters, including quarantined
	// corrupt files (zero-valued when the cache is memory-only).
	Store store.Stats
}

// Stats snapshots the cache counters.
func (c *Checkpoints) Stats() CkptStats {
	s := CkptStats{
		Builds:       c.builds.Load(),
		StoreHits:    c.storeHits.Load(),
		LoadFailures: c.loadFails.Load(),
	}
	if c.st != nil {
		s.Store = c.st.Stats()
	}
	return s
}

// Builds reports how many warmups were actually executed — the single-flight
// assertion hook: N variants sharing one warm prefix must yield Builds()==1.
func (c *Checkpoints) Builds() uint64 { return c.builds.Load() }

func (c *Checkpoints) get(key string, cfg Config, mix workload.Mix, seed uint64) ([]byte, error) {
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = new(ckptEntry)
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if c.st != nil {
			// A blob from another checkpoint format version passes the
			// store's checksum but can never load: treat it as a miss, so
			// it is rebuilt once and overwritten below.
			if blob, ok := c.st.Get(key); ok {
				if _, err := ckpt.NewReader(blob); err == nil {
					c.storeHits.Add(1)
					e.blob = blob
					return
				}
			}
		}
		sys := newSystem(cfg, mix, seed)
		sys.Warmup()
		blob, err := sys.SaveCheckpoint()
		if err != nil {
			e.err = fmt.Errorf("harness: build checkpoint %s: %w", key, err)
			return
		}
		c.builds.Add(1)
		if c.st != nil {
			// Best-effort cache write: the blob is served from memory this
			// process regardless, and a missing file is just a future miss.
			_ = c.st.Put(key, blob)
		}
		e.blob = blob
	})
	return e.blob, e.err
}

func (c *Checkpoints) drop(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

// restoreOrWarm brings a freshly built, reseeded system to its post-warmup
// state and returns the system to measure: s restored from the shared
// checkpoint when that works, else a fresh system warmed directly. Both
// paths leave bit-identical state, so the choice is purely a wall-clock
// optimization. A nil cache warms s.
func (c *Checkpoints) restoreOrWarm(s *System) *System {
	if c == nil {
		s.Warmup()
		return s
	}
	key := WarmKey(s.Cfg, s.mix, s.seed)
	blob, err := c.get(key, s.Cfg, s.mix, s.seed)
	if err == nil {
		if err = s.LoadCheckpoint(blob); err == nil {
			return s
		}
	}
	// Version skew or semantic damage behind a valid store envelope: drop
	// the blob so the next run rebuilds it. LoadCheckpoint may have applied
	// the sections before the one that failed, so warm a fresh system
	// rather than s.
	c.loadFails.Add(1)
	c.drop(key)
	s = newSystem(s.Cfg, s.mix, s.seed)
	s.Warmup()
	return s
}

// RunSeededCkptE runs the mix with a run-level stream seed, resuming from
// the shared warmup checkpoint (ck == nil warms directly). It validates the
// configuration first and surfaces an abnormal end of run as an error
// alongside the partial result.
func RunSeededCkptE(cfg Config, mix workload.Mix, seed uint64, ck *Checkpoints) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	r := simulate(cfg, mix, seed, ck)
	return r, r.Abort
}
