package antireplay

import (
	"fmt"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
)

// Gateway-scale persistence types, re-exported from the implementation.
type (
	// JournalCell is one key of a Lanes medium viewed as a Store.
	JournalCell = store.Cell
	// SaverPool runs background SAVEs for many stores on bounded workers.
	SaverPool = store.SaverPool
	// PoolSaver is one store's BackgroundSaver handle onto a SaverPool.
	PoolSaver = store.PoolSaver
	// Lanes is the persistent medium: a directory of commit-lane journals
	// under one manifest, each an append-only log multiplexing many SAs'
	// durable counters, routed by the SAD's SPI hash, with parallel group
	// commits and concurrent crash recovery by replay.
	Lanes = store.Lanes
	// LanesOption configures OpenLanes.
	LanesOption = store.LanesOption
	// RecoveryStats reports what open-time replay found: frames replayed,
	// corrupt frames dropped mid-log, and whether a torn tail was cut.
	RecoveryStats = store.RecoveryStats
	// Gateway is a multi-SA IPsec endpoint persisting every SA into one
	// shared Lanes medium through one shared SaverPool.
	Gateway = ipsec.Gateway
	// GatewayConfig configures a Gateway.
	GatewayConfig = ipsec.GatewayConfig
)

// DefaultGatewayK is the SAVE interval a Gateway uses when none is given.
const DefaultGatewayK = ipsec.DefaultGatewayK

// Journal errors.
var (
	// ErrBadKey reports an empty or over-long journal key.
	ErrBadKey = store.ErrBadKey
	// ErrCellClaimed reports a ClaimCell on a key already claimed in this
	// process (a Gateway claims its SAs' cells; see ErrDuplicateSPI).
	ErrCellClaimed = store.ErrCellClaimed
)

// RecoveryDropped returns the process-wide count of corrupt mid-log regions
// dropped during journal recovery — the loud replacement for silently
// truncating at the first bad frame.
func RecoveryDropped() uint64 { return store.RecoveryDropped() }

// NewLanes opens (or creates) the persistent medium rooted at dir: N commit
// lanes, each its own group-committed journal file, fsyncing and recovering
// in parallel. Each key's counter recovers as the maximum over its valid
// records, and a torn tail is discarded. An existing directory's manifest
// fixes the lane count; LanesCount applies only to a fresh one, and
// LanesCount(1) gives a small endpoint a single log file.
func NewLanes(dir string, opts ...LanesOption) (*Lanes, error) {
	return store.OpenLanes(dir, opts...)
}

// LanesCount sets the lane count for a fresh lane directory (power of two,
// up to 1024; default 64, matching the SAD's stripes).
func LanesCount(n int) LanesOption { return store.LanesCount(n) }

// LanesWithoutSync disables every fsync in every lane (measurement only; a
// power loss may lose recent saves).
func LanesWithoutSync() LanesOption { return store.LanesWithoutSync() }

// LanesCompactAt sets the per-lane log size in bytes that triggers
// compaction to one record per key; <= 0 disables compaction.
func LanesCompactAt(n int64) LanesOption { return store.LanesCompactAt(n) }

// LanesBatchDelay makes each lane's group-commit syncer linger for d before
// its fsync so more concurrent SAVEs share it; durability is unchanged,
// save latency grows by up to d.
func LanesBatchDelay(d time.Duration) LanesOption { return store.LanesBatchDelay(d) }

// LanesTailBuffer sets each lane's retained-record window for replication
// tails.
func LanesTailBuffer(n int) LanesOption { return store.LanesTailBuffer(n) }

// LanesStrictRecovery makes every lane refuse (ErrCorrupt) to open when its
// first bad frame is followed by valid records, instead of dropping the
// damaged region; prefer it on storage without its own integrity checking.
func LanesStrictRecovery() LanesOption { return store.LanesStrictRecovery() }

// NewSaverPool starts a pool of background-save workers (<= 0 means
// store.DefaultPoolWorkers).
func NewSaverPool(workers int) *SaverPool { return store.NewSaverPool(workers) }

// NewJournalSender builds a resilient sender whose counter lives in medium
// j under key. pool may be nil for synchronous saves; with a pool, saves
// coalesce per key and group-commit across keys. The cell is claimed
// exclusively (ErrCellClaimed on a key already owned — release with
// j.ReleaseCell); if the journal holds a prior life's counter, the sender
// resumes through the paper's wake-up rather than restarting at 1, and is
// briefly StateWaking when saves are pooled. The strict durable horizon is
// enabled: pool queueing can push a counter more than 2K past its durable
// value, and the horizon turns that reuse window into bounded backpressure
// (Next returns ErrSaveLag until the save lands).
func NewJournalSender(j *Lanes, key string, k uint64, pool *SaverPool) (*Sender, error) {
	cell, resume, err := claimJournalCell(j, key)
	if err != nil {
		return nil, fmt.Errorf("antireplay: journal sender %q: %w", key, err)
	}
	cfg := core.SenderConfig{K: k, Store: cell, StrictHorizon: true}
	if pool != nil {
		cfg.Saver = pool.Saver(cell)
	}
	snd, err := core.NewSender(cfg)
	if err != nil {
		j.ReleaseCell(key)
		return nil, fmt.Errorf("antireplay: journal sender %q: %w", key, err)
	}
	if resume {
		snd.Reset()
		snd.Wake()
	}
	return snd, nil
}

// claimJournalCell claims key and reports whether a prior life's state is
// present (the caller must then resume via Reset+Wake, not restart at the
// initial counter). The claim is released if the fetch fails.
func claimJournalCell(j *Lanes, key string) (*JournalCell, bool, error) {
	cell, err := j.ClaimCell(key)
	if err != nil {
		return nil, false, err
	}
	_, resume, err := cell.Fetch()
	if err != nil {
		j.ReleaseCell(key)
		return nil, false, err
	}
	return cell, resume, nil
}

// NewJournalReceiver builds a resilient receiver whose window edge lives in
// medium j under key, with a window of width w. pool may be nil for
// synchronous saves. Cell claiming and prior-state resumption work as in
// NewJournalSender, and the strict durable horizon is enabled: delivery at
// or beyond committed+2K is deferred (VerdictHorizon) until the lagging
// save lands.
func NewJournalReceiver(j *Lanes, key string, k uint64, w int, pool *SaverPool) (*Receiver, error) {
	cell, resume, err := claimJournalCell(j, key)
	if err != nil {
		return nil, fmt.Errorf("antireplay: journal receiver %q: %w", key, err)
	}
	cfg := core.ReceiverConfig{K: k, W: w, Store: cell, StrictHorizon: true}
	if pool != nil {
		cfg.Saver = pool.Saver(cell)
	}
	rcv, err := core.NewReceiver(cfg)
	if err != nil {
		j.ReleaseCell(key)
		return nil, fmt.Errorf("antireplay: journal receiver %q: %w", key, err)
	}
	if resume {
		rcv.Reset()
		rcv.Wake()
	}
	return rcv, nil
}

// NewGateway builds a multi-SA gateway over a shared journal and pool; see
// ipsec.GatewayConfig for the knobs.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return ipsec.NewGateway(cfg) }

// OutboundKey is the journal key a Gateway uses for an outbound SA.
func OutboundKey(spi uint32) string { return ipsec.OutboundKey(spi) }

// InboundKey is the journal key a Gateway uses for an inbound SA.
func InboundKey(spi uint32) string { return ipsec.InboundKey(spi) }
