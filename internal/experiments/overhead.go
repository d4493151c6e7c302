package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

// OverheadConfig parameterizes the SAVE-overhead measurement.
type OverheadConfig struct {
	// Messages is how many sequence numbers each configuration hands out.
	Messages int
	// Ks is the sweep of SAVE intervals; 0 denotes the baseline (no saves).
	Ks []uint64
}

// DefaultOverheadConfig sweeps K over three orders of magnitude.
func DefaultOverheadConfig() OverheadConfig {
	return OverheadConfig{
		Messages: 200000,
		Ks:       []uint64{0, 1, 5, 25, 100, 1000},
	}
}

// SaveOverhead measures the steady-state cost the SAVE machinery adds to
// the send path as a function of K, on a real file store with background
// (goroutine) saves and on an in-memory store. The paper's design goal is
// that the background SAVE "does not block the normal communication": the
// per-message overhead should fall roughly as 1/K and vanish against the
// baseline for the paper's K = 25.
func SaveOverhead(cfg OverheadConfig) (*Table, error) {
	t := &Table{
		ID:    "overhead",
		Title: "Steady-state SAVE overhead vs K",
		Note: "K=0 is the baseline protocol (no saves). Background saves run on goroutines; " +
			"expect ns/msg to approach the baseline as K grows (overhead ~ 1/K).",
		Columns: []string{"store", "K", "messages", "ns_per_msg", "saves_started"},
	}

	dir, err := os.MkdirTemp("", "overhead-*")
	if err != nil {
		return nil, fmt.Errorf("experiments: overhead tempdir: %w", err)
	}
	defer os.RemoveAll(dir)

	for _, medium := range []string{"mem", "file"} {
		for _, k := range cfg.Ks {
			nsPerMsg, saves, err := overheadRun(dir, medium, k, cfg.Messages)
			if err != nil {
				return nil, err
			}
			kLabel := fmt.Sprint(k)
			if k == 0 {
				kLabel = "baseline"
			}
			t.AddRow(medium, kLabel, fmt.Sprint(cfg.Messages),
				fmt.Sprintf("%.1f", nsPerMsg), fmt.Sprint(saves))
		}
	}
	return t, nil
}

func overheadRun(dir, medium string, k uint64, messages int) (nsPerMsg float64, saves uint64, err error) {
	var st store.Store
	switch medium {
	case "mem":
		st = &store.Mem{}
	case "file":
		st = store.NewFile(filepath.Join(dir, fmt.Sprintf("ovh-%s-%d.dat", medium, k)), store.WithoutSync())
	default:
		return 0, 0, fmt.Errorf("experiments: unknown medium %q", medium)
	}

	cfg := core.SenderConfig{K: k, Store: st}
	if k == 0 {
		cfg = core.SenderConfig{Baseline: true}
	}
	var pool *store.SaverPool
	if k > 0 {
		pool = store.NewSaverPool(1)
		cfg.Saver = pool.Saver(st)
	}
	snd, err := core.NewSender(cfg)
	if err != nil {
		return 0, 0, err
	}

	start := time.Now()
	for i := 0; i < messages; i++ {
		if _, err := snd.Next(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	if pool != nil {
		pool.Close() // wait for in-flight saves before reading stats
	}
	return float64(elapsed.Nanoseconds()) / float64(messages), snd.Stats().SavesStarted, nil
}
