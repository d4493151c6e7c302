package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"antireplay/internal/store"
)

// GatewayConfig parameterizes the gateway-persistence comparison.
type GatewayConfig struct {
	// SACounts is the sweep of SA populations.
	SACounts []int
	// SavesPerSA is how many SAVEs each SA issues.
	SavesPerSA int
	// Workers sizes the shared SaverPool.
	Workers int
	// BatchDelay is the journal's group-commit linger.
	BatchDelay time.Duration
}

// DefaultGatewayConfig sweeps up to the acceptance point: 1k SAs on one
// journal.
func DefaultGatewayConfig() GatewayConfig {
	return GatewayConfig{
		SACounts:   []int{100, 1000},
		SavesPerSA: 10,
		Workers:    16,
		BatchDelay: 200 * time.Microsecond,
	}
}

// GatewayPersistence prices the paper's SAVE operation at gateway scale:
// n SAs persisting through one group-committed Journal + shared SaverPool
// versus the same workload on the seed's one-file-per-SA stores (each save
// costing a temp-file fsync plus a directory fsync). The journal multiplexes
// every SA onto one durable medium, so concurrent SAVEs share fsyncs; the
// reduction column is the acceptance metric (>= 10x at 1000 SAs).
func GatewayPersistence(cfg GatewayConfig) (*Table, error) {
	t := &Table{
		ID:    "gateway",
		Title: "Gateway persistence: shared journal+pool vs per-SA files",
		Note: "Expect journal fsyncs to stay orders of magnitude below the per-file " +
			"count: group commit shares each fsync across every SA that saved since " +
			"the last one.",
		Columns: []string{"n_sas", "saves", "journal_fsyncs", "journal_ms",
			"perfile_fsyncs", "perfile_ms", "fsync_reduction"},
	}

	for _, n := range cfg.SACounts {
		dir, err := os.MkdirTemp("", "gwpersist-*")
		if err != nil {
			return nil, fmt.Errorf("experiments: gateway tempdir: %w", err)
		}

		// drive pushes the whole workload through savers built by mk,
		// returning the elapsed wall time. Saves for one SA are issued
		// back-to-back (coalescible), all SAs concurrently queued — a
		// burst across the population, the shape a busy gateway produces.
		drive := func(mk func(i int) *store.PoolSaver) (time.Duration, error) {
			start := time.Now()
			var wg sync.WaitGroup
			var mu sync.Mutex
			var firstErr error
			for i := 0; i < n; i++ {
				s := mk(i)
				wg.Add(cfg.SavesPerSA)
				for v := 1; v <= cfg.SavesPerSA; v++ {
					s.StartSave(uint64(v*25), func(err error) {
						if err != nil {
							mu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							mu.Unlock()
						}
						wg.Done()
					})
				}
			}
			wg.Wait()
			return time.Since(start), firstErr
		}

		// Shared journal + pool.
		j, err := store.OpenLanes(filepath.Join(dir, "gw"), store.LanesCount(1),
			store.LanesBatchDelay(cfg.BatchDelay))
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("experiments: gateway journal: %w", err)
		}
		jPool := store.NewSaverPool(cfg.Workers)
		jElapsed, err := drive(func(i int) *store.PoolSaver {
			return jPool.Saver(j.Cell(fmt.Sprintf("sa/%06d", i)))
		})
		jPool.Close()
		journalSyncs := j.Syncs()
		j.Close()
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("experiments: gateway journal save: %w", err)
		}

		// Per-file equivalent: same pool shape, one store + fsync stream
		// per SA.
		files := make([]*store.File, n)
		fPool := store.NewSaverPool(cfg.Workers)
		fElapsed, err := drive(func(i int) *store.PoolSaver {
			files[i] = store.NewFile(filepath.Join(dir, fmt.Sprintf("sa-%06d.seq", i)))
			return fPool.Saver(files[i])
		})
		fPool.Close()
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("experiments: gateway per-file save: %w", err)
		}
		var fileSyncs uint64
		for _, f := range files {
			fileSyncs += f.Syncs()
		}
		os.RemoveAll(dir)

		reduction := float64(fileSyncs) / float64(max(journalSyncs, 1))
		t.AddRow(fmt.Sprint(n),
			fmt.Sprint(n*cfg.SavesPerSA),
			fmt.Sprint(journalSyncs),
			fmt.Sprintf("%.2f", jElapsed.Seconds()*1e3),
			fmt.Sprint(fileSyncs),
			fmt.Sprintf("%.2f", fElapsed.Seconds()*1e3),
			fmt.Sprintf("%.1fx", reduction))
	}
	return t, nil
}
