package offramps

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"offramps/internal/capture"
	"offramps/internal/fpga"
	"offramps/internal/gcode"
	"offramps/internal/goldenstore"
	"offramps/internal/sim"
)

// goldenKey content-addresses one golden print: the exact program (hashed
// over raw float bits, finer than the 5-decimal G-code serialization), the
// time-noise seed, and the effective run budget (the scenario's own, else
// the campaign's). It is the simKey of a default-rig scenario plus the
// capture mode. Everything else that shapes a cacheable scenario's
// capture is the testbed's compiled-in default configuration, which is
// constant for a build: scenarios with a trojan or detector factory, or
// a non-default tap, settle or bypass, are never cached (see
// Scenario.goldenCacheable and DESIGN.md §6).
type goldenKey struct {
	program [sha256.Size]byte
	seed    uint64
	budget  sim.Time
	// mode keeps full-trace and fingerprint-only results apart: the two
	// are deliberately different shapes (one carries a Recording, the
	// other only summaries), so a campaign must never be handed the
	// other mode's cached result.
	mode CaptureMode
}

// storeKey maps the in-memory key onto the persistent store's key type
// (identical fields; goldenstore cannot import this package).
func (k goldenKey) storeKey() goldenstore.Key {
	return goldenstore.Key{
		Program: k.program,
		Seed:    k.seed,
		Budget:  int64(k.budget),
		Mode:    uint8(k.mode),
	}
}

// hashProgram computes the content address of a program.
func hashProgram(prog gcode.Program) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, c := range prog {
		h.Write([]byte(c.Code))
		h.Write([]byte{0})
		for _, w := range c.Words {
			h.Write([]byte{w.Letter})
			if w.Bare {
				h.Write([]byte{1})
			} else {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w.Value))
				h.Write(buf[:])
			}
		}
		h.Write([]byte{'\n'})
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// goldenEntry is one memoized golden run. The first caller to insert the
// entry owns the computation; everyone else blocks on done. If the owner
// fails, it records the error, unpublishes the entry, and closes done —
// waiters observe the failure and re-attempt with a fresh entry rather
// than inheriting an error that may have been specific to the owner (a
// cancelled context, a transient store fault).
type goldenEntry struct {
	done chan struct{} // closed once res/err are final
	res  *Result
	err  error
}

// GoldenCache memoizes golden (trojan-free, detector-free, unmodified)
// print runs across campaigns. The experiment suite re-simulates
// bit-identical goldens — TableII, Figure4, and Drift all print the same
// program with overlapping seeds — so a shared cache lets each golden be
// simulated exactly once per process. Determinism makes this sound: a
// cached Result is bit-identical to a fresh run with the same key (the
// store row of TestExecutionPathsAgree). The cache is unbounded: it
// holds every golden a process asks for.
//
// Cached Results (including Part and Recording) are shared read-only;
// everything downstream of a campaign treats results as immutable.
type GoldenCache struct {
	mu      sync.Mutex
	entries map[goldenKey]*goldenEntry
	hits    uint64
	misses  uint64
	// bytes is the retained-size estimate of every settled entry.
	bytes int64

	// store is the optional persistent tier (AttachStore). A memory miss
	// consults it before simulating; a fresh simulation is written back
	// best-effort. storeHits/storeMisses count those consultations, and
	// sims counts actual fresh simulations — on a fully warm store a
	// fresh process reports memory misses but zero sims.
	store       *goldenstore.Store
	storeHits   uint64
	storeMisses uint64
	sims        uint64
	// used records every store key this cache has been asked for — the
	// keep set a store GC (goldenstore.Prune) retains. Tracked only
	// while a store is attached.
	used map[goldenstore.Key]bool
}

// NewGoldenCache returns an empty cache.
func NewGoldenCache() *GoldenCache {
	return &GoldenCache{entries: make(map[goldenKey]*goldenEntry)}
}

// AttachStore wires a persistent golden store behind the in-memory tier.
// Memory misses consult the store before simulating; fresh simulations
// are persisted best-effort (encode or write failures are ignored — the
// store is an accelerator, never a correctness dependency). Attach
// before the cache is shared across goroutines.
func (gc *GoldenCache) AttachStore(store *goldenstore.Store) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	gc.store = store
}

// Stats reports memory-tier hits and misses so far. A hit is counted
// only when a settled result is actually served — a waiter that joined a
// computation that then failed re-attempts and is not a hit.
func (gc *GoldenCache) Stats() (hits, misses uint64) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.hits, gc.misses
}

// StoreStats reports persistent-tier hits and misses (zero when no store
// is attached).
func (gc *GoldenCache) StoreStats() (hits, misses uint64) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.storeHits, gc.storeMisses
}

// Sims reports the number of fresh golden simulations actually run — the
// figure a warm persistent store drives to zero.
func (gc *GoldenCache) Sims() uint64 {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.sims
}

// Len reports the number of memoized goldens.
func (gc *GoldenCache) Len() int {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return len(gc.entries)
}

// Bytes estimates the memory retained by the cached results: recording
// transactions, deposit ledgers, and a small fixed overhead per entry.
// It is an accounting figure (slice backing arrays, not Go runtime
// overhead), intended for progress displays and capacity planning.
func (gc *GoldenCache) Bytes() int64 {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.bytes
}

// resultBytes estimates the bulk memory a cached result retains.
func resultBytes(res *Result) int64 {
	const (
		txSize      = 20  // capture.Transaction: uint32 + 4×int32
		depositSize = 32  // printer.Deposit: 4×float64
		fixed       = 512 // result struct, fingerprints, reports
	)
	size := int64(fixed)
	if res == nil {
		return size
	}
	seen := make(map[*capture.Recording]bool, 3)
	for _, rec := range []*capture.Recording{res.Recording, res.ArduinoRecording, res.RAMPSRecording} {
		if rec == nil || seen[rec] {
			continue
		}
		seen[rec] = true
		size += int64(cap(rec.Transactions)) * txSize
	}
	if res.Part != nil {
		size += int64(len(res.Part.Deposits())) * depositSize
	}
	return size
}

// run returns the memoized result for key. Concurrent callers for the
// same key block on the first caller's computation; if that owner fails,
// its waiters re-attempt the key themselves instead of inheriting an
// error that may have been the owner's alone (a cancelled context), so a
// transient failure never poisons the key — and never fails bystanders.
// Failures are not memoized.
func (gc *GoldenCache) run(key goldenKey, fresh func() (*Result, error)) (*Result, error) {
	for {
		gc.mu.Lock()
		if gc.entries == nil {
			gc.entries = make(map[goldenKey]*goldenEntry)
		}
		if gc.store != nil {
			if gc.used == nil {
				gc.used = make(map[goldenstore.Key]bool)
			}
			gc.used[key.storeKey()] = true
		}
		if e, ok := gc.entries[key]; ok {
			gc.mu.Unlock()
			<-e.done
			if e.err != nil {
				continue // owner failed and unpublished the entry; re-attempt
			}
			gc.mu.Lock()
			gc.hits++
			gc.mu.Unlock()
			return e.res, nil
		}
		e := &goldenEntry{done: make(chan struct{})}
		gc.entries[key] = e
		gc.misses++
		gc.mu.Unlock()

		res, err := gc.fill(key, fresh)

		gc.mu.Lock()
		if err != nil {
			e.err = err
			if gc.entries[key] == e {
				delete(gc.entries, key)
			}
			gc.mu.Unlock()
			close(e.done)
			return nil, err
		}
		e.res = res
		gc.bytes += resultBytes(res)
		gc.mu.Unlock()
		close(e.done)
		return res, nil
	}
}

// fill produces the result for a memory-tier miss: consult the persistent
// store if one is attached (a corrupt or undecodable entry is a miss,
// never an error), otherwise simulate fresh and write the golden back
// best-effort.
func (gc *GoldenCache) fill(key goldenKey, fresh func() (*Result, error)) (*Result, error) {
	gc.mu.Lock()
	store := gc.store
	gc.mu.Unlock()
	if store != nil {
		sk := key.storeKey()
		if payload, ok := store.Get(sk); ok {
			if res, err := decodeGoldenResult(payload); err == nil {
				gc.mu.Lock()
				gc.storeHits++
				gc.mu.Unlock()
				return res, nil
			}
		}
		gc.mu.Lock()
		gc.storeMisses++
		gc.mu.Unlock()
	}
	res, err := fresh()
	if err != nil {
		return nil, err
	}
	gc.mu.Lock()
	gc.sims++
	gc.mu.Unlock()
	if store != nil {
		if payload, encErr := encodeGoldenResult(res); encErr == nil {
			_ = store.Put(key.storeKey(), payload)
		}
	}
	return res, nil
}

// UsedStoreKeys returns every persistent-store key the cache has been
// asked for since its store was attached — the keep set for a
// goldenstore.Prune garbage collection after a run (see cmd/suite's
// -golden-store-gc).
func (gc *GoldenCache) UsedStoreKeys() []goldenstore.Key {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	out := make([]goldenstore.Key, 0, len(gc.used))
	for k := range gc.used {
		out = append(out, k)
	}
	return out
}

// goldenCacheable reports whether the scenario is a pure golden print the
// cache may memoize: no trojan, no detector, and the default tap, settle
// and board. Those are exactly the rig fields goldenKey leaves out, so
// the key covers everything that shapes a cacheable scenario's capture.
func (s *Scenario) goldenCacheable() bool {
	return s.Trojan == nil && s.Detector == nil &&
		s.Tap == fpga.TapArduino && s.Settle == 0 && !s.Bypass
}
