package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/ike"
	"antireplay/internal/ipsec"
	"antireplay/internal/rekey"
	"antireplay/internal/store"
)

// TestRaceFailoverRekeyDatapath is the cluster's -race stress test: batched
// seal/verify traffic hammers the datapath while the rekey orchestrator
// rolls the tunnel over and a controller repeatedly crashes the primary,
// promotes the standby, hands the orchestrator over, and rebuilds a standby
// on the rebooted node — failover, failback, failover again.
//
// Safety assertions: every payload is delivered at most once (exactly-once
// across rollover AND failover), and replaying the entire recorded wire
// history into the final primary re-delivers nothing.
func TestRaceFailoverRekeyDatapath(t *testing.T) {
	dir := t.TempDir()
	const (
		k         = 10
		workers   = 4
		batches   = 120
		batchLen  = 8
		failovers = 3
	)

	jA := openJournal(t, filepath.Join(dir, "a.log"))
	defer jA.Close()
	A, err := ipsec.NewGateway(ipsec.GatewayConfig{Journal: jA, K: k})
	if err != nil {
		t.Fatal(err)
	}
	defer A.Close()

	j1 := openJournal(t, filepath.Join(dir, "node1.log"))
	t.Cleanup(func() { j1.Close() })
	B1, err := ipsec.NewGateway(ipsec.GatewayConfig{Journal: j1, K: k})
	if err != nil {
		t.Fatal(err)
	}

	abSPI, baSPI := uint32(0x11), uint32(0x21)
	if _, err := A.AddOutbound(abSPI, testKeys(1), testSel(false)); err != nil {
		t.Fatal(err)
	}
	if _, err := A.AddInbound(baSPI, testKeys(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := B1.AddInbound(abSPI, testKeys(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := B1.AddOutbound(baSPI, testKeys(2), testSel(true)); err != nil {
		t.Fatal(err)
	}

	// current is the serving B-side gateway (swapped atomically by the
	// failover controller); the control plane — rollovers, mirrors,
	// failovers — serializes on ctl.Mutex, the datapath does not.
	var current atomic.Pointer[ipsec.Gateway]
	current.Store(B1)
	var ctl struct {
		sync.Mutex
		standby *Standby
	}

	j2 := openJournal(t, filepath.Join(dir, "node2.log"))
	t.Cleanup(func() { j2.Close() })
	sb, err := NewStandby(Config{Source: j1, Journal: j2, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Mirror(B1.Snapshot()); err != nil {
		t.Fatal(err)
	}
	ctl.standby = sb

	// Rekey orchestrator with a synthetic always-succeeding exchange; the
	// hour-long grace keeps every drained generation verifiable, so the
	// end-of-run history replay exercises old SPIs too.
	var nextSPI atomic.Uint32
	nextSPI.Store(0x1000)
	o, err := rekey.New(rekey.Config{
		A: A, B: B1,
		Grace: time.Hour,
		Exchange: func(oldAB, oldBA uint32) (ike.ChildKeys, error) {
			ab := nextSPI.Add(2)
			return ike.ChildKeys{
				SPIInitToResp: ab, SPIRespToInit: ab + 1,
				InitToResp: testKeys(byte(ab)), RespToInit: testKeys(byte(ab + 1)),
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tun, err := o.Track(abSPI, baSPI)
	if err != nil {
		t.Fatal(err)
	}

	var (
		histMu      sync.Mutex
		history     [][]byte
		delivered   sync.Map // payload string -> *atomic.Int64
		trafficDone = make(chan struct{})
		trafficWG   sync.WaitGroup
		ctlWG       sync.WaitGroup
	)
	countDelivery := func(payload []byte) {
		c, _ := delivered.LoadOrStore(string(payload), new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
	}

	// Datapath workers: SealBatch at A, VerifyBatch at the current B.
	for w := 0; w < workers; w++ {
		trafficWG.Add(1)
		go func(w int) {
			defer trafficWG.Done()
			for n := 0; n < batches; n++ {
				payloads := make([][]byte, batchLen)
				for i := range payloads {
					payloads[i] = []byte(fmt.Sprintf("p-%d-%d-%d", w, n, i))
				}
				// Seal, resuming after partial grants so no payload is ever
				// sealed twice (a re-seal would forge a duplicate delivery).
				var wires [][]byte
				remaining := payloads
				for tries := 0; len(remaining) > 0; tries++ {
					ws, err := A.SealBatch(testAddr(0), testAddr(1), remaining)
					wires = append(wires, ws...)
					remaining = remaining[len(ws):]
					if len(remaining) == 0 {
						break
					}
					if tries > 200000 {
						t.Errorf("worker %d: sealing stalled: %v", w, err)
						return
					}
					if err != nil && !errors.Is(err, core.ErrSaveLag) &&
						!errors.Is(err, ipsec.ErrDraining) && !errors.Is(err, ipsec.ErrNoPolicy) {
						t.Errorf("worker %d: seal: %v", w, err)
						return
					}
					time.Sleep(20 * time.Microsecond)
				}
				histMu.Lock()
				history = append(history, wires...)
				histMu.Unlock()

				// Verify with bounded retry. Horizon clears once the lagging
				// replicated save lands; Down clears when the failover swaps
				// in the promoted gateway. Everything else is final — stale,
				// duplicate and unknown-SPI outcomes are network loss here.
				pending := wires
				for tries := 0; len(pending) > 0 && tries < 4000; tries++ {
					gw := current.Load()
					results := gw.VerifyBatch(pending)
					retry := pending[:0]
					for i, res := range results {
						switch {
						case res.Delivered():
							countDelivery(res.Payload)
						case res.Err == nil && (res.Verdict == core.VerdictHorizon ||
							res.Verdict == core.VerdictDown):
							retry = append(retry, pending[i])
						}
					}
					pending = retry
					if len(pending) > 0 {
						time.Sleep(50 * time.Microsecond)
					}
				}
				time.Sleep(150 * time.Microsecond)
			}
		}(w)
	}

	// Rollover driver: rolls the tunnel over whenever it is steady and
	// refreshes the standby's mirror after each cutover.
	var failoversDone, rolloversDone atomic.Int64
	ctlWG.Add(1)
	go func() {
		defer ctlWG.Done()
		for {
			select {
			case <-trafficDone:
				return
			case <-time.After(3 * time.Millisecond):
			}
			ctl.Lock()
			if tun.State() == rekey.StateSteady {
				if err := o.Rollover(tun); err == nil {
					rolloversDone.Add(1)
					ctl.standby.Mirror(current.Load().Snapshot()) //nolint:errcheck // refreshed after the next rollover
				}
			}
			ctl.Unlock()
		}
	}()

	// Failover controller: crash, promote, hand off, reboot the dead node
	// as the next standby. Odd rounds fail back to the original node.
	ctlWG.Add(1)
	go func() {
		defer ctlWG.Done()
		for round := 0; round < failovers; round++ {
			select {
			case <-trafficDone:
				return
			case <-time.After(5 * time.Millisecond):
			}
			ctl.Lock()
			old := current.Load()
			ctl.standby.Mirror(old.Snapshot()) //nolint:errcheck // best-effort refresh before the crash
			old.ResetAll()
			gw2, _, err := ctl.standby.Takeover()
			if err != nil {
				t.Errorf("round %d takeover: %v", round, err)
				ctl.Unlock()
				return
			}
			if err := o.Handoff(old, gw2); err != nil {
				t.Errorf("round %d handoff: %v", round, err)
				ctl.Unlock()
				return
			}
			current.Store(gw2)
			// Reboot the dead node: close its gateway and fenced journal
			// handle, reopen the journal from disk, re-sync as standby.
			oldJournal := old.Journal()
			path := oldJournal.Path()
			old.Close()
			oldJournal.Close()
			jre, err := store.OpenLanes(path, store.LanesCount(1), store.LanesWithoutSync())
			if err != nil {
				t.Errorf("round %d reboot: %v", round, err)
				ctl.Unlock()
				return
			}
			t.Cleanup(func() { jre.Close() })
			sb2, err := NewStandby(Config{Source: gw2.Journal(), Journal: jre, K: k})
			if err != nil {
				t.Errorf("round %d standby rebuild: %v", round, err)
				ctl.Unlock()
				return
			}
			if err := sb2.Start(); err != nil {
				t.Errorf("round %d standby start: %v", round, err)
				ctl.Unlock()
				return
			}
			sb2.Mirror(gw2.Snapshot()) //nolint:errcheck // the rollover driver refreshes it
			ctl.standby = sb2
			ctl.Unlock()
			failoversDone.Add(1)
		}
	}()

	trafficWG.Wait()
	close(trafficDone)
	ctlWG.Wait()
	ctl.Lock()
	finalStandby := ctl.standby
	ctl.Unlock()
	defer finalStandby.Stop()

	// The stress must actually have stressed: failovers and a rollover
	// interleaved with live traffic, and a healthy share of it delivered.
	if failoversDone.Load() < 2 {
		t.Fatalf("only %d failovers completed during traffic; pacing broken", failoversDone.Load())
	}
	if rolloversDone.Load() < 1 {
		t.Fatalf("no rollover completed during traffic; pacing broken")
	}
	total := 0
	delivered.Range(func(_, _ any) bool { total++; return true })
	if total < workers*batches*batchLen/2 {
		t.Fatalf("only %d/%d payloads delivered; the fleet mostly failed", total, workers*batches*batchLen)
	}

	// Exactly-once: no payload may have been delivered more than once.
	dups := 0
	delivered.Range(func(key, v any) bool {
		if n := v.(*atomic.Int64).Load(); n > 1 {
			dups++
			if dups <= 5 {
				t.Errorf("payload %q delivered %d times", key, n)
			}
		}
		return true
	})
	if dups > 0 {
		t.Fatalf("%d payloads delivered more than once", dups)
	}

	// Zero replays: the full wire history re-delivers nothing that was
	// already delivered. (A wire that was genuinely lost during the run may
	// deliver for the first time here — that is late delivery, not replay —
	// and joining the ledger means a second copy of it in this loop would
	// be caught too.)
	final := current.Load()
	replays := 0
	histMu.Lock()
	defer histMu.Unlock()
	for _, wire := range history {
		payload, v, err := final.Open(wire)
		if err != nil || !v.Delivered() {
			continue
		}
		c, _ := delivered.LoadOrStore(string(payload), new(atomic.Int64))
		if c.(*atomic.Int64).Add(1) > 1 {
			replays++
		}
	}
	if replays != 0 {
		t.Fatalf("%d wires from the history re-delivered on the final primary", replays)
	}
}
