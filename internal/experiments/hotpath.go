package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
)

// HotpathConfig parameterizes the datapath/persistence hot-path microbench
// table.
type HotpathConfig struct {
	// Records is the journal append count (split across Savers goroutines).
	Records int
	// Savers is the parallel saver count for the journal row.
	Savers int
	// Packets is the per-row packet count for the seal/open/admission rows.
	Packets int
	// PayloadLen sizes the ESP payload.
	PayloadLen int
}

// DefaultHotpathConfig returns the standard parameterization.
func DefaultHotpathConfig() HotpathConfig {
	return HotpathConfig{Records: 400000, Savers: 64, Packets: 200000, PayloadLen: 64}
}

// Hotpath measures the wait-free datapath and the journal commit pipeline
// on this machine: 64-way parallel journal SAVE throughput (the path every
// SA's counter persistence shares), zero-copy seal/open throughput, and the
// per-packet admission cost of the lock-free fast path against the mutex
// receiver. The allocs_op column is measured with testing.AllocsPerRun on
// the steady state and is the pinned zero-allocation contract of PR 5.
func Hotpath(cfg HotpathConfig) (*Table, error) {
	t := &Table{
		ID:    "hotpath",
		Title: "hot-path cost: pipelined journal commit, zero-alloc seal/verify, wait-free admission",
		Note: "Expect 0 allocs_op on every steady-state row: the commit pipeline stages encoded frames " +
			"into reused slabs and group-commits them, and the seal/open paths reuse pooled per-SA crypto " +
			"state and caller buffers. journal_save_64 is the gateway-scale SAVE shape (64 concurrent " +
			"savers sharing one log); admission_fast vs admission_mutex is the per-packet anti-replay " +
			"decision with and without the RCU fast path.",
		Columns: []string{"path", "ops", "ns_op", "per_sec", "allocs_op"},
	}

	if err := hotpathJournalRows(t, cfg); err != nil {
		return nil, err
	}
	if err := hotpathSealRows(t, cfg); err != nil {
		return nil, err
	}
	if err := hotpathAdmissionRows(t, cfg); err != nil {
		return nil, err
	}
	return t, nil
}

func addHotpathRow(t *Table, path string, ops int, elapsed time.Duration, allocs float64) {
	nsOp := float64(elapsed.Nanoseconds()) / float64(ops)
	t.AddRow(path, fmt.Sprint(ops), fmt.Sprintf("%.1f", nsOp),
		fmt.Sprintf("%.0f", float64(ops)/elapsed.Seconds()), fmt.Sprintf("%.2f", allocs))
}

func hotpathJournalRows(t *Table, cfg HotpathConfig) error {
	dir, err := os.MkdirTemp("", "hotpath-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := store.OpenLanes(filepath.Join(dir, "j"), store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		return err
	}
	defer j.Close()

	// Parallel: the gateway-scale shape — many SAs' savers sharing one log.
	cells := make([]*store.Cell, cfg.Savers)
	for i := range cells {
		cells[i] = j.Cell(ipsec.OutboundKey(uint32(i + 1)))
	}
	per := cfg.Records / cfg.Savers
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Savers)
	start := time.Now()
	for g := 0; g < cfg.Savers; g++ {
		wg.Add(1)
		go func(c *store.Cell) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				if err := c.Save(uint64(i)); err != nil {
					errs <- err
					return
				}
			}
		}(cells[g])
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return err
	default:
	}

	// Serial steady-state allocation count for one save.
	v := uint64(per)
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
	addHotpathRow(t, "journal_save_64", per*cfg.Savers, elapsed, allocs)
	return nil
}

func hotpathSealRows(t *Table, cfg HotpathConfig) error {
	keys := ipsec.KeyMaterial{
		AuthKey: make([]byte, ipsec.AuthKeySize),
		EncKey:  make([]byte, ipsec.EncKeySize),
	}
	var mtx, mrx store.Mem
	snd, err := core.NewSender(core.SenderConfig{K: 1 << 40, Store: &mtx})
	if err != nil {
		return err
	}
	tx, err := ipsec.NewOutboundSA(0x42, keys, snd, true, ipsec.Lifetime{}, nil)
	if err != nil {
		return err
	}
	rcv, err := core.NewReceiver(core.ReceiverConfig{K: 1 << 40, W: 1024, Store: &mrx, Concurrent: true})
	if err != nil {
		return err
	}
	rx, err := ipsec.NewInboundSA(0x42, keys, rcv, true, ipsec.Lifetime{}, nil)
	if err != nil {
		return err
	}

	payload := make([]byte, cfg.PayloadLen)
	workers := runtime.GOMAXPROCS(0)
	per := cfg.Packets / workers
	var wg sync.WaitGroup
	sealErrs := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 4096)
			for i := 0; i < per; i++ {
				out, err := tx.SealAppend(buf[:0], payload)
				if err != nil {
					sealErrs <- err
					return
				}
				buf = out[:0]
			}
		}()
	}
	wg.Wait()
	sealElapsed := time.Since(start)
	select {
	case err := <-sealErrs:
		return err
	default:
	}
	sealBuf := make([]byte, 0, 4096)
	sealAllocs := testing.AllocsPerRun(200, func() {
		out, err := tx.SealAppend(sealBuf[:0], payload)
		if err == nil {
			sealBuf = out[:0]
		}
	})
	addHotpathRow(t, "seal_append", per*workers, sealElapsed, sealAllocs)

	// Open: verify a pre-sealed in-order stream.
	wires := make([][]byte, cfg.Packets/4)
	for i := range wires {
		w, err := tx.Seal(payload)
		if err != nil {
			return err
		}
		wires[i] = w
	}
	pbuf := make([]byte, 0, 4096)
	start = time.Now()
	for _, w := range wires {
		out, verdict, err := rx.OpenAppend(pbuf[:0], w)
		if err != nil {
			return err
		}
		if !verdict.Delivered() {
			return fmt.Errorf("hotpath: in-order packet not delivered: %v", verdict)
		}
		pbuf = out[:0]
	}
	openElapsed := time.Since(start)
	i := 0
	extra := make([][]byte, 300)
	for k := range extra {
		w, err := tx.Seal(payload)
		if err != nil {
			return err
		}
		extra[k] = w
	}
	openAllocs := testing.AllocsPerRun(200, func() {
		out, _, err := rx.OpenAppend(pbuf[:0], extra[i])
		if err == nil {
			pbuf = out[:0]
		}
		i++
	})
	addHotpathRow(t, "open_append", len(wires), openElapsed, openAllocs)
	return nil
}

func hotpathAdmissionRows(t *Table, cfg HotpathConfig) error {
	for _, concurrent := range []bool{false, true} {
		var m store.Mem
		r, err := core.NewReceiver(core.ReceiverConfig{
			K: 1 << 12, W: 1024, Store: &m, Concurrent: concurrent,
		})
		if err != nil {
			return err
		}
		workers := runtime.GOMAXPROCS(0)
		per := cfg.Packets / workers
		var ticket atomic.Uint64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					r.Admit(ticket.Add(1))
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		allocs := testing.AllocsPerRun(500, func() {
			r.Admit(ticket.Add(1))
		})
		name := "admission_mutex"
		if concurrent {
			name = "admission_fast"
		}
		addHotpathRow(t, name, per*workers, elapsed, allocs)
	}
	return nil
}
