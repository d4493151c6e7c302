package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"antireplay/internal/ipsec"
	"antireplay/internal/store"
)

// ScaleConfig parameterizes the million-SA scale experiment.
type ScaleConfig struct {
	// Cells is the number of distinct SA counters populated into each
	// journal medium for the recovery comparison.
	Cells int
	// Lanes is the commit-lane count of the laned medium.
	Lanes int
	// Savers is the concurrent saver count for the steady-state SAVE row.
	Savers int
	// SAs is the inbound SA count for the heap-footprint row.
	SAs int
}

// DefaultScaleConfig returns the headline parameterization: one million
// counters and one million SAs.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{Cells: 1_000_000, Lanes: 64, Savers: 64, SAs: 1_000_000}
}

// Scale measures the journal-lanes subsystem at gateway scale: cold-start
// recovery of the same counter population through a one-lane medium
// (Lanes(1): one log replayed serially) versus the laned medium (lanes
// replayed concurrently), the steady-state cost of
// 64 concurrent savers spread across lanes, and the pinned per-SA heap
// footprint of a fully installed inbound SA population.
func Scale(cfg ScaleConfig) (*Table, error) {
	t := &Table{
		ID:    "scale",
		Title: "million-SA scale: laned recovery, 64-way SAVE, per-SA heap",
		Note: "recover_single replays the population through a one-lane medium (Lanes(1)); recover_lanes " +
			"replays the same population split across lanes, which recover concurrently, so the speedup " +
			"scales with cores. Both parse frames into packed uint64-keyed cells (no per-key string or " +
			"map-bucket churn). save_lanes_64 is the gateway-scale SAVE shape routed across " +
			"lanes at 0 allocs_op; with ~one saver per lane each lane's group commit covers ~one frame, " +
			"so the laned append trades the single log's cross-saver write batching (hotpath's " +
			"journal_save_64, which this PR must not and does not regress) for per-lane committers and " +
			"fsyncs that parallelize across cores and devices. sa_heap installs the full inbound SA " +
			"population over the laned medium and reports live heap per SA; its install rate is bound by " +
			"the SAD's copy-on-write snapshots, not the journal.",
		Columns: []string{"path", "ops", "ms", "per_sec", "detail"},
	}
	dir, err := os.MkdirTemp("", "scale-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if err := scaleRecoveryRows(t, cfg, dir); err != nil {
		return nil, err
	}
	if err := scaleFootprintRow(t, cfg, dir); err != nil {
		return nil, err
	}
	return t, nil
}

func addScaleRow(t *Table, path string, ops int, elapsed time.Duration, detail string) {
	t.AddRow(path, fmt.Sprint(ops), fmt.Sprintf("%.1f", float64(elapsed.Nanoseconds())/1e6),
		fmt.Sprintf("%.0f", float64(ops)/elapsed.Seconds()), detail)
}

// scaleRecoveryRows populates the identical cell population into both media,
// measures the 64-way steady-state SAVE on the lanes, then closes both and
// times the cold-start replay of each.
func scaleRecoveryRows(t *Table, cfg ScaleConfig, dir string) error {
	singlePath := filepath.Join(dir, "single")
	lanesDir := filepath.Join(dir, "lanes")
	single, err := store.OpenLanes(singlePath, store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		return err
	}
	lanes, err := store.OpenLanes(lanesDir, store.LanesCount(cfg.Lanes), store.LanesWithoutSync())
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Cells; i++ {
		key := fmt.Sprintf("rx/%08x", i)
		v := uint64(i + 1)
		if err := single.Cell(key).Save(v); err != nil {
			return err
		}
		if err := lanes.Cell(key).Save(v); err != nil {
			return err
		}
	}

	// Steady-state 64-way SAVE across lanes, before the close so the savers
	// run against warm staging slabs. The extra frames land in the lane logs
	// and are replayed below — which only handicaps the lanes side of the
	// recovery comparison, never flatters it.
	cells := make([]*store.Cell, cfg.Savers)
	for i := range cells {
		cells[i] = lanes.Cell(fmt.Sprintf("rx/%08x", i))
	}
	per := cfg.Cells / cfg.Savers / 4
	if per < 1000 {
		per = 1000
	}
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Savers)
	start := time.Now()
	for g := 0; g < cfg.Savers; g++ {
		wg.Add(1)
		go func(c *store.Cell) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				if err := c.Save(uint64(cfg.Cells + i)); err != nil {
					errs <- err
					return
				}
			}
		}(cells[g])
	}
	wg.Wait()
	saveElapsed := time.Since(start)
	select {
	case err := <-errs:
		return err
	default:
	}
	v := uint64(2 * cfg.Cells)
	allocs := testing.AllocsPerRun(500, func() {
		v++
		if err := cells[0].Save(v); err != nil {
			errs <- err
		}
	})
	select {
	case err := <-errs:
		return err
	default:
	}
	ops := per * cfg.Savers
	addScaleRow(t, "save_lanes_64", ops, saveElapsed,
		fmt.Sprintf("ns_op=%.1f allocs_op=%.2f", float64(saveElapsed.Nanoseconds())/float64(ops), allocs))

	if err := single.Close(); err != nil {
		return err
	}
	if err := lanes.Close(); err != nil {
		return err
	}

	// Cold-start recovery: reopen each medium and replay its whole log.
	start = time.Now()
	single2, err := store.OpenLanes(singlePath, store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		return err
	}
	singleElapsed := time.Since(start)
	defer single2.Close()
	if got := single2.Keys(); got != cfg.Cells {
		return fmt.Errorf("scale: single lane recovered %d keys, want %d", got, cfg.Cells)
	}
	addScaleRow(t, "recover_single", cfg.Cells, singleElapsed, "1 lane")

	start = time.Now()
	lanes2, err := store.OpenLanes(lanesDir, store.LanesWithoutSync())
	if err != nil {
		return err
	}
	lanesElapsed := time.Since(start)
	defer lanes2.Close()
	if got := lanes2.Keys(); got != cfg.Cells {
		return fmt.Errorf("scale: lanes recovered %d keys, want %d", got, cfg.Cells)
	}
	addScaleRow(t, "recover_lanes", cfg.Cells, lanesElapsed,
		fmt.Sprintf("%d lanes, speedup=%.2fx",
			lanes2.LaneCount(), float64(singleElapsed)/float64(lanesElapsed)))
	return nil
}

// scaleFootprintRow installs the full inbound SA population on one gateway
// over a laned medium and reports the live heap cost per SA.
func scaleFootprintRow(t *Table, cfg ScaleConfig, dir string) error {
	lanes, err := store.OpenLanes(filepath.Join(dir, "sas"),
		store.LanesCount(cfg.Lanes), store.LanesWithoutSync())
	if err != nil {
		return err
	}
	defer lanes.Close()
	gw, err := ipsec.NewGateway(ipsec.GatewayConfig{Journal: lanes})
	if err != nil {
		return err
	}
	defer gw.Close()

	keys := ipsec.KeyMaterial{AuthKey: bytes.Repeat([]byte{0x5A}, ipsec.AuthKeySize)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < cfg.SAs; i++ {
		if _, err := gw.AddInbound(uint32(i+1), keys); err != nil {
			return fmt.Errorf("scale: AddInbound %d: %w", i, err)
		}
	}
	elapsed := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := after.HeapAlloc - before.HeapAlloc
	addScaleRow(t, "sa_heap", cfg.SAs, elapsed,
		fmt.Sprintf("bytes_per_sa=%d heap_mib=%.0f", heap/uint64(cfg.SAs), float64(heap)/(1<<20)))
	return nil
}
