package store

import (
	"fmt"
	"sync"
	"time"
)

// Faulty wraps a Store and injects failures for testing the protocol's
// behaviour under storage faults:
//
//   - FailSaves(n): the next n Save calls return ErrInjected without
//     persisting (an I/O error the caller observes).
//   - LoseSaves(n): the next n Save calls report success without persisting.
//     This models a medium that acknowledges before the data is durable
//     (e.g. no fsync) and deliberately violates the paper's persistent-
//     memory assumption — used by ablation tests to show which guarantee
//     breaks.
//   - FailFetches(n): the next n Fetch calls return ErrInjected without
//     reading (an I/O error on the read path).
//   - CorruptFetches(n): the next n Fetch calls return an error matching
//     both ErrCorrupt and ErrInjected — the record validated badly, and the
//     damage was injected.
//   - SetLatency(d): every Save and Fetch (faulted or not) takes at least d,
//     modeling a slow medium rather than a broken one.
//
// Faulty injects at the Store (single cell) level; the file-layer equivalent
// for whole media is storefault.Injector, which shares the same ErrInjected
// sentinel. Faulty is safe for concurrent use.
type Faulty struct {
	mu             sync.Mutex
	inner          Store
	failSaves      int
	loseSaves      int
	failFetches    int
	corruptFetches int
	latency        time.Duration
	saves          uint64
	lostSaves      uint64
}

var _ Store = (*Faulty)(nil)

// NewFaulty wraps inner with fault injection.
func NewFaulty(inner Store) *Faulty {
	return &Faulty{inner: inner}
}

// FailSaves arranges for the next n Save calls to return ErrInjected.
func (f *Faulty) FailSaves(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSaves = n
}

// LoseSaves arranges for the next n Save calls to silently not persist.
func (f *Faulty) LoseSaves(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loseSaves = n
}

// FailFetches arranges for the next n Fetch calls to return ErrInjected.
func (f *Faulty) FailFetches(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failFetches = n
}

// CorruptFetches arranges for the next n Fetch calls to fail validation:
// the returned error matches both ErrCorrupt and ErrInjected.
func (f *Faulty) CorruptFetches(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corruptFetches = n
}

// SetLatency makes every subsequent Save and Fetch sleep for at least d
// before proceeding; zero restores full speed.
func (f *Faulty) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// errCorruptInjected matches both ErrCorrupt (what a validating reader
// checks for) and ErrInjected (what a fault-assertion checks for).
var errCorruptInjected = fmt.Errorf("%w: %w", ErrCorrupt, ErrInjected)

// Save persists v unless a fault is armed.
func (f *Faulty) Save(v uint64) error {
	f.mu.Lock()
	if d := f.latency; d > 0 {
		f.mu.Unlock()
		time.Sleep(d)
		f.mu.Lock()
	}
	if f.failSaves > 0 {
		f.failSaves--
		f.mu.Unlock()
		return ErrInjected
	}
	if f.loseSaves > 0 {
		f.loseSaves--
		f.lostSaves++
		f.mu.Unlock()
		return nil
	}
	f.saves++
	f.mu.Unlock()
	return f.inner.Save(v)
}

// Fetch reads the persisted value unless a read fault is armed.
func (f *Faulty) Fetch() (uint64, bool, error) {
	f.mu.Lock()
	if d := f.latency; d > 0 {
		f.mu.Unlock()
		time.Sleep(d)
		f.mu.Lock()
	}
	if f.failFetches > 0 {
		f.failFetches--
		f.mu.Unlock()
		return 0, false, ErrInjected
	}
	if f.corruptFetches > 0 {
		f.corruptFetches--
		f.mu.Unlock()
		return 0, false, errCorruptInjected
	}
	f.mu.Unlock()
	return f.inner.Fetch()
}

// LostSaves reports how many saves were silently dropped so far.
func (f *Faulty) LostSaves() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lostSaves
}

// Latent wraps a Store and adds a fixed wall-clock delay to each Save,
// emulating a slow persistent medium (the paper's T_save, e.g. 100µs for a
// disk write on the paper's Pentium III testbed).
type Latent struct {
	inner Store
	delay time.Duration
}

var _ Store = (*Latent)(nil)

// NewLatent wraps inner so every Save sleeps for delay before persisting.
func NewLatent(inner Store, delay time.Duration) *Latent {
	return &Latent{inner: inner, delay: delay}
}

// Save sleeps for the configured delay, then persists v.
func (l *Latent) Save(v uint64) error {
	if l.delay > 0 {
		time.Sleep(l.delay)
	}
	return l.inner.Save(v)
}

// Fetch reads the persisted value without added delay.
func (l *Latent) Fetch() (uint64, bool, error) { return l.inner.Fetch() }
