// Root benchmark harness: one testing.B benchmark per figure/table of the
// paper (run `go run ./cmd/benchtables -list` for the index). Each benchmark executes the same
// experiment function that cmd/benchtables uses to regenerate the artifact,
// reports its headline metric via b.ReportMetric, and logs the full table
// under -v.
//
// Regenerate all artifacts as text/CSV with:
//
//	go run ./cmd/benchtables -outdir results
package antireplay_test

import (
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"antireplay"
	"antireplay/internal/experiments"
	"antireplay/internal/store"
)

// runTable executes an experiment once per iteration, logging the rendered
// table on the first iteration.
func runTable(b *testing.B, run func() (*experiments.Table, error)) *experiments.Table {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = tbl
	}
	b.StopTimer()
	if last != nil {
		b.Log("\n" + last.String())
	}
	return last
}

// colValue returns the named column of the last row as a float.
func colValue(b *testing.B, tbl *experiments.Table, name string) float64 {
	b.Helper()
	for i, c := range tbl.Columns {
		if c != name {
			continue
		}
		v, err := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-1][i], 64)
		if err != nil {
			b.Fatalf("parse %s: %v", name, err)
		}
		return v
	}
	b.Fatalf("no column %q", name)
	return 0
}

// BenchmarkFig1SenderReset regenerates Figure 1: sequence numbers lost to a
// sender reset across the save cycle, bounded by 2Kp.
func BenchmarkFig1SenderReset(b *testing.B) {
	tbl := runTable(b, func() (*experiments.Table, error) {
		return experiments.Fig1SenderReset(experiments.DefaultFig1Config())
	})
	b.ReportMetric(colValue(b, tbl, "lost"), "lost-seqs")
	b.ReportMetric(colValue(b, tbl, "bound_2K"), "bound")
}

// BenchmarkFig2ReceiverReset regenerates Figure 2: fresh messages
// sacrificed to a receiver reset, bounded by 2Kq, with zero duplicate
// deliveries under full-history replay.
func BenchmarkFig2ReceiverReset(b *testing.B) {
	tbl := runTable(b, func() (*experiments.Table, error) {
		return experiments.Fig2ReceiverReset(experiments.DefaultFig2Config())
	})
	b.ReportMetric(colValue(b, tbl, "sacrificed"), "sacrificed")
	b.ReportMetric(colValue(b, tbl, "dup_delivered"), "dups")
}

// BenchmarkTableUnbounded regenerates the §3 comparison: baseline damage
// grows linearly with pre-reset traffic; the resilient protocol stays flat.
func BenchmarkTableUnbounded(b *testing.B) {
	tbl := runTable(b, func() (*experiments.Table, error) {
		cfg := experiments.DefaultUnboundedConfig()
		cfg.Traffic = []uint64{500, 1000, 2000}
		return experiments.UnboundedBaseline(cfg)
	})
	// Last row is the resilient protocol at the largest x: flat damage.
	b.ReportMetric(colValue(b, tbl, "replays_delivered_again"), "resilient-dups")
}

// BenchmarkTableSaveInterval regenerates the §4 sizing example
// (K = ceil(T_save/T_send)) with this machine's measured costs.
func BenchmarkTableSaveInterval(b *testing.B) {
	cfg := experiments.DefaultSizingConfig()
	cfg.Samples = 50
	tbl := runTable(b, func() (*experiments.Table, error) {
		return experiments.SaveIntervalSizing(cfg)
	})
	b.ReportMetric(colValue(b, tbl, "K"), "K-file-fsync")
}

// BenchmarkTableConvergenceSender regenerates §5 condition (i) across K.
func BenchmarkTableConvergenceSender(b *testing.B) {
	tbl := runTable(b, func() (*experiments.Table, error) {
		return experiments.ConvergenceSender(experiments.DefaultConvergenceConfig())
	})
	b.ReportMetric(colValue(b, tbl, "lost"), "lost-at-K400")
}

// BenchmarkTableConvergenceReceiver regenerates §5 condition (ii) across K.
func BenchmarkTableConvergenceReceiver(b *testing.B) {
	tbl := runTable(b, func() (*experiments.Table, error) {
		return experiments.ConvergenceReceiver(experiments.DefaultConvergenceConfig())
	})
	b.ReportMetric(colValue(b, tbl, "sacrificed"), "sacrificed-at-K400")
}

// BenchmarkTableRecoveryCost regenerates the §3 recovery comparison (IKE
// renegotiation vs SAVE/FETCH). Uses the small DH group per iteration to
// keep bench time sane; run cmd/benchtables for the full 2048-bit numbers.
func BenchmarkTableRecoveryCost(b *testing.B) {
	tbl := runTable(b, func() (*experiments.Table, error) {
		return experiments.RecoveryCost(experiments.RecoveryConfig{
			SACounts: []int{1, 4, 16}, FastDH: true, Seed: 1,
		})
	})
	b.ReportMetric(colValue(b, tbl, "ike_ms"), "ike-ms-16sas")
	b.ReportMetric(colValue(b, tbl, "savefetch_ms"), "sf-ms-16sas")
}

// BenchmarkTableProlongedReset regenerates the §6 DPD/hold-time sweep.
func BenchmarkTableProlongedReset(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) {
		return experiments.ProlongedReset(experiments.DefaultProlongedConfig())
	})
}

// BenchmarkTableDoubleReset regenerates the §4 second-consideration
// experiment (paper vs unsafe ablation).
func BenchmarkTableDoubleReset(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) {
		return experiments.DoubleReset(experiments.DefaultDoubleResetConfig())
	})
}

// BenchmarkTableLeapAblation regenerates the leap-factor ablation (why 2K).
func BenchmarkTableLeapAblation(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) {
		return experiments.LeapAblation(experiments.DefaultLeapConfig())
	})
}

// BenchmarkTableDelivery regenerates the §2 w-Delivery / Discrimination
// verification under link impairments.
func BenchmarkTableDelivery(b *testing.B) {
	cfg := experiments.DefaultDeliveryConfig()
	cfg.Messages = 3000
	tbl := runTable(b, func() (*experiments.Table, error) {
		return experiments.Delivery(cfg)
	})
	b.ReportMetric(colValue(b, tbl, "dupes_delivered"), "dups")
}

// BenchmarkTableSaveOverhead regenerates the SAVE-overhead table
// (ns/message vs K).
func BenchmarkTableSaveOverhead(b *testing.B) {
	cfg := experiments.OverheadConfig{Messages: 50000, Ks: []uint64{0, 1, 25, 1000}}
	tbl := runTable(b, func() (*experiments.Table, error) {
		return experiments.SaveOverhead(cfg)
	})
	b.ReportMetric(colValue(b, tbl, "ns_per_msg"), "ns-per-msg-K1000")
}

// BenchmarkTableHorizon regenerates the analysis-gap table (E13): the
// paper's receiver duplicates a loss-jumped message once the jump exceeds
// the leap; the strict-horizon variant never does.
func BenchmarkTableHorizon(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) {
		return experiments.LossJumpHorizon(experiments.DefaultHorizonConfig())
	})
}

// BenchmarkTableGatewayPersistence regenerates the gateway-scale SAVE
// comparison: 1k SAs multiplexed onto one group-committed journal versus
// the per-SA-file pattern. The headline metric is the fsync reduction
// (acceptance: >= 10x at 1000 SAs).
func BenchmarkTableGatewayPersistence(b *testing.B) {
	tbl := runTable(b, func() (*experiments.Table, error) {
		return experiments.GatewayPersistence(experiments.DefaultGatewayConfig())
	})
	b.ReportMetric(colValue(b, tbl, "journal_fsyncs"), "journal-fsyncs-1k")
	b.ReportMetric(colValue(b, tbl, "perfile_fsyncs"), "perfile-fsyncs-1k")
}

// BenchmarkTableDatapath regenerates the concurrent-admission comparison:
// the mutex-serialized receiver versus the seqwin.Atomic fast path across
// goroutine counts (acceptance: >= 3x inbound throughput at 8 goroutines
// on an 8-way host).
func BenchmarkTableDatapath(b *testing.B) {
	tbl := runTable(b, func() (*experiments.Table, error) {
		cfg := experiments.DefaultDatapathConfig()
		cfg.Packets = 1 << 18
		return experiments.Datapath(cfg)
	})
	b.ReportMetric(colValue(b, tbl, "mutex_mpps"), "mutex-mpps-8g")
	b.ReportMetric(colValue(b, tbl, "fast_mpps"), "fast-mpps-8g")
}

// benchAdmission drives one receiver from every benchmark goroutine, each
// admitting globally unique increasing numbers (an atomic ticket counter),
// the contention shape of a multi-queue gateway NIC.
func benchAdmission(b *testing.B, concurrent bool) {
	b.Helper()
	var m store.Mem
	r, err := antireplay.NewReceiver(antireplay.ReceiverConfig{
		K: 1 << 12, W: 1024, Store: &m, Concurrent: concurrent,
	})
	if err != nil {
		b.Fatal(err)
	}
	var ticket atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Admit(ticket.Add(1))
		}
	})
}

// BenchmarkParallelAdmissionMutex is the baseline: every Admit serializes
// on the receiver mutex. Run with -cpu 1,2,4,8 to see it stay flat.
func BenchmarkParallelAdmissionMutex(b *testing.B) { benchAdmission(b, false) }

// BenchmarkParallelAdmissionFastPath admits through the wait-free fast
// path: one atomic window-pointer load plus the seqwin.Atomic lock-free
// admission — no mutex, no read gate, no per-delivery counter update. Run
// with -cpu 1,2,4,8; the acceptance target is >= 3x the mutex receiver at
// 8 goroutines on an 8-way host, and PR 5's target is >= 2x the pre-PR
// fast path even single-core.
func BenchmarkParallelAdmissionFastPath(b *testing.B) { benchAdmission(b, true) }

// BenchmarkTableHotpath regenerates the PR 5 hot-path table: pipelined
// journal commit throughput, zero-alloc seal/open, and admission cost.
func BenchmarkTableHotpath(b *testing.B) {
	tbl := runTable(b, func() (*experiments.Table, error) {
		cfg := experiments.DefaultHotpathConfig()
		cfg.Records = 64000
		cfg.Packets = 40000
		return experiments.Hotpath(cfg)
	})
	b.ReportMetric(colValue(b, tbl, "ns_op"), "admission-fast-ns")
}

// BenchmarkTableScale regenerates the PR 6 scale table at its 50k smoke
// parameterization: laned vs single-journal cold-start recovery, the
// 64-way laned SAVE cost, and heap per installed SA (the full million-SA
// run is `go run ./cmd/benchtables -only scale`, committed in
// BENCH_6.json).
func BenchmarkTableScale(b *testing.B) {
	tbl := runTable(b, func() (*experiments.Table, error) {
		cfg := experiments.DefaultScaleConfig()
		cfg.Cells = 50_000
		cfg.SAs = 50_000
		return experiments.Scale(cfg)
	})
	b.ReportMetric(colValue(b, tbl, "per_sec"), "sa-installs-per-sec")
}

// BenchmarkJournalAppendParallel drives 64 goroutines of concurrent saves
// (one cell each, the gateway-scale SAVE shape) into one no-fsync journal:
// the commit pipeline's staging + group write under full contention. The
// pre-PR journal paid one write(2) syscall, one allocation, and an O(window)
// tail-buffer shift per record; the pipeline stages into reused slabs and
// writes once per elected batch — 0 allocs/op and >= 3x the throughput.
func BenchmarkJournalAppendParallel(b *testing.B) {
	benchJournalAppend(b, false)
}

// BenchmarkJournalAppendLaggingFollower is BenchmarkJournalAppendParallel
// with an attached tail that never reads: the retained record window stays
// permanently full, so every append exercises the ring's trim path. With
// the old slice-based buffer each overflow memmoved the whole retained
// window; the ring advances its head instead, so appends must not degrade
// against the no-follower benchmark beyond the cost of filling ring slots.
func BenchmarkJournalAppendLaggingFollower(b *testing.B) {
	benchJournalAppend(b, true)
}

func benchJournalAppend(b *testing.B, laggingFollower bool) {
	b.Helper()
	j, err := antireplay.NewLanes(filepath.Join(b.TempDir(), "j"), antireplay.LanesCount(1), antireplay.LanesWithoutSync())
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	if laggingFollower {
		tl, err := j.LaneJournals()[0].Follow()
		if err != nil {
			b.Fatal(err)
		}
		defer tl.Close() // attached but never reading: permanently lagging
	}
	const savers = 64
	cells := make([]*store.Cell, savers)
	for i := range cells {
		cells[i] = j.Cell(antireplay.OutboundKey(uint32(i + 1)))
	}
	per := b.N/savers + 1
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < savers; g++ {
		wg.Add(1)
		go func(c *store.Cell) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				if err := c.Save(uint64(i)); err != nil {
					b.Error(err)
					return
				}
			}
		}(cells[g])
	}
	wg.Wait()
}

// BenchmarkSealParallel seals 64-byte payloads (auth+enc) from every
// benchmark goroutine through one outbound SA's zero-allocation append path:
// sequence reservation is atomic under the sender mutex, the AES key
// schedule and HMAC state come from the SA's crypto pool, and the wire is
// built into a per-goroutine reused buffer — 0 allocs/op in steady state.
func BenchmarkSealParallel(b *testing.B) {
	var m store.Mem
	snd, err := antireplay.NewSender(antireplay.SenderConfig{K: 1 << 40, Store: &m})
	if err != nil {
		b.Fatal(err)
	}
	keys := antireplay.KeyMaterial{
		AuthKey: make([]byte, antireplay.AuthKeySize),
		EncKey:  make([]byte, antireplay.EncKeySize),
	}
	sa, err := antireplay.NewOutboundSA(0x42, keys, snd, true, antireplay.Lifetime{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, 0, 4096)
		for pb.Next() {
			out, err := sa.SealAppend(buf[:0], payload)
			if err != nil {
				b.Error(err)
				return
			}
			buf = out[:0]
		}
	})
}
