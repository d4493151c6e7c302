package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/dpd"
	"antireplay/internal/ipsec"
	"antireplay/internal/netsim"
	"antireplay/internal/store"
)

// FailoverConfig parameterizes the HA failover experiment.
type FailoverConfig struct {
	// Seed drives all randomness (loss draws, key material).
	Seed int64
	// LossProbs is the sweep of per-direction packet loss probabilities;
	// DPD probes and acks are lost with the same probability.
	LossProbs []float64
	// Tunnels is the number of SA pairs between the peer and the cluster.
	Tunnels int
	// PacketsPerPhase is the number of bidirectional rounds per tunnel in
	// each traffic phase (before the failover, between the failovers, and
	// after the failback).
	PacketsPerPhase int
	// K is the SAVE interval of every SA.
	K uint64
	// Lanes is the number of journal commit lanes per node (<= 1 means
	// one); replication runs lane-to-lane.
	Lanes int
}

// DefaultFailoverConfig sweeps loss up to 25% over laned journals.
func DefaultFailoverConfig() FailoverConfig {
	return FailoverConfig{
		Seed:            1,
		LossProbs:       []float64{0, 0.05, 0.25},
		Tunnels:         4,
		PacketsPerPhase: 200,
		K:               25,
		Lanes:           8,
	}
}

// Failover runs the cluster subsystem end to end: a peer gateway drives
// bidirectional traffic through a primary whose journal replicates to a
// standby; the primary crashes; the standby is promoted by the epoch-fenced
// takeover (the paper's wake-up run against the replica); dead-peer
// detection on the surviving peer sees the outage and the promoted node's
// secured resurrection announcement, exactly the §6 flow. The experiment
// then fails BACK: the original node reboots, re-syncs as a standby, and is
// promoted while the interim primary is still alive — a deliberate split
// brain whose deposed writer must stall and whose journal writes must be
// rejected.
//
// Asserted invariants (the test fails a row otherwise):
//
//   - zero replay acceptances: after every promotion, replaying the entire
//     recorded wire history re-delivers nothing;
//   - the false-reject window after the crash failover is bounded by the
//     per-SA wake window (replicated value + leap − edge at crash), whose
//     sum the replication-lag gauges bound: window <= lag_values +
//     tunnels*(leap + 2K);
//   - no counter regression across the double failover: every failback
//     sender resumes at or above the interim primary's last used number;
//   - the split-brained deposed primary stalls within its horizon (at most
//     leap sequence numbers per SA) and its journal rejects writes.
func Failover(cfg FailoverConfig) (*Table, error) {
	t := &Table{
		ID:    "failover",
		Title: "HA cluster: journal replication, epoch-fenced takeover, failback",
		Note: "Expect zero replay_accepts and zero regressions at every loss rate: " +
			"takeover wakes each SA from its replicated counter, so the paper's " +
			"no-reuse/no-replay theorems carry over to failover verbatim. " +
			"false_rejects is the failover analogue of the paper's <= 2K " +
			"post-reset sacrifice, bounded by window_bound = sum over SAs of " +
			"(replicated value + leap - edge at crash), itself bounded by the " +
			"reported replication lag plus the leap per SA. deposed_seals counts " +
			"how far the split-brained old primary got before stalling (< leap " +
			"per SA, fenced journal).",
		Columns: []string{"loss", "delivered", "lag_records", "lag_values",
			"false_rejects", "window_bound", "blackout", "replay_accepts",
			"deposed_seals", "epochs", "regressions"},
	}
	for _, p := range cfg.LossProbs {
		row, err := failoverRow(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("experiments: failover loss %.2f: %w", p, err)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ReplicationThroughput measures the journal replication pipeline in its
// deployment shape — concurrent producers saving into a source journal
// whose sync follower applies the tailed record stream into a follower
// journal in group-committed batches, acking each batch — and returns
// records per second of end-to-end (save-to-ack) throughput. Used by
// cmd/benchtables to seed the machine-readable perf trajectory.
func ReplicationThroughput(records, producers int) (float64, error) {
	dir, err := os.MkdirTemp("", "replthroughput-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	srcMedium, err := store.OpenLanes(filepath.Join(dir, "src"), store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		return 0, err
	}
	defer srcMedium.Close()
	dstMedium, err := store.OpenLanes(filepath.Join(dir, "dst"), store.LanesCount(1), store.LanesWithoutSync())
	if err != nil {
		return 0, err
	}
	defer dstMedium.Close()
	src, dst := srcMedium.LaneJournals()[0], dstMedium.LaneJournals()[0]

	tl, err := src.Follow()
	if err != nil {
		return 0, err
	}
	defer tl.Close()
	if err := src.SyncFollower(tl); err != nil {
		return 0, err
	}
	applyDone := make(chan error, 1)
	go func() {
		buf := make([]store.TailRecord, 512)
		for {
			n, err := tl.Recv(buf)
			if err != nil {
				if errors.Is(err, store.ErrClosed) {
					err = nil
				}
				applyDone <- err
				return
			}
			if err := dst.Apply(buf[:n]); err != nil {
				// Release the sync-follower gate before reporting, or the
				// producers' Saves block forever on acks that never come.
				tl.Close()
				applyDone <- err
				return
			}
			tl.Ack(buf[n-1].Seq + 1)
		}
	}()

	if producers < 1 {
		producers = 1
	}
	per := records / producers
	errs := make(chan error, producers)
	start := time.Now()
	for p := 0; p < producers; p++ {
		go func(p int) {
			key := fmt.Sprintf("sa/%04d", p)
			for i := 1; i <= per; i++ {
				if err := src.Cell(key).Save(uint64(i)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(p)
	}
	for p := 0; p < producers; p++ {
		if err := <-errs; err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	tl.Close()
	if err := <-applyDone; err != nil {
		return 0, err
	}
	return float64(per*producers) / elapsed.Seconds(), nil
}

// failoverRun is one row's scenario state around the fixture: the peer's
// DPD monitor fed by the back direction, and the loss draw.
type failoverRun struct {
	*GatewayPair
	cfg  FailoverConfig
	loss float64
	e    *netsim.Engine
	mon  *dpd.Monitor
}

// reply seals a back-direction payload on tunnel i at the current primary
// and delivers it to the peer (subject to loss), feeding the DPD monitor.
func (s *failoverRun) reply(i int, payload []byte) {
	w, err := s.Reply(i, payload)
	if err != nil || s.e.Rand().Float64() < s.loss {
		return // down, draining, fenced or lost: the reply never arrives
	}
	pl, v, err := s.Sender().Open(w)
	if err != nil || !v.Delivered() {
		return
	}
	if kind, probeSeq, ok := dpd.ParsePayload(pl); ok {
		switch kind {
		case "ack":
			s.mon.NoteAck(probeSeq)
		case "resync":
			s.mon.NoteInbound()
		}
	} else {
		s.mon.NoteInbound()
	}
}

// phase drives rounds of bidirectional traffic across every tunnel.
func (s *failoverRun) phase(rounds int) error {
	const interval = 20 * time.Microsecond
	for n := 0; n < rounds; n++ {
		for i := 0; i < s.cfg.Tunnels; i++ {
			if _, err := s.Send(i, []byte(fmt.Sprintf("data %d/%d", n, i))); err != nil {
				return err
			}
			// The echo keeps the peer's DPD monitor fed.
			s.reply(i, []byte("echo"))
		}
		s.e.RunFor(interval)
	}
	return nil
}

func failoverRow(cfg FailoverConfig, loss float64) ([]string, error) {
	e := netsim.NewEngine(cfg.Seed)
	p, err := NewGatewayPair(PairSetup{
		Scenario: fmt.Sprintf("failover loss %.2f", loss), Seed: cfg.Seed,
		K: cfg.K, Lanes: cfg.Lanes, Options: []store.LanesOption{store.LanesWithoutSync()},
		Path: func(w []byte) ([]byte, error) {
			if e.Rand().Float64() < loss {
				return nil, nil
			}
			return w, nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	s := &failoverRun{GatewayPair: p, cfg: cfg, loss: loss, e: e}
	for i := 0; i < cfg.Tunnels; i++ {
		if _, err := p.AddTunnel(uint32(0xA000+i), uint32(0xB000+i), ipsec.KeyMaterial{}, ipsec.KeyMaterial{}); err != nil {
			return nil, err
		}
	}
	if err := p.StartStandby(); err != nil {
		return nil, err
	}

	// Dead-peer detection on the surviving peer, probing over tunnel 0;
	// an answered probe is acked on the back direction.
	s.mon, err = dpd.NewMonitor(dpd.Config{
		Engine:      e,
		IdleTimeout: time.Millisecond,
		AckTimeout:  500 * time.Microsecond,
		MaxProbes:   2,
		HoldTime:    time.Second,
		SendProbe: func(probeSeq uint64) {
			if ok, _ := p.Send(0, dpd.ProbePayload(probeSeq)); ok {
				s.reply(0, dpd.AckPayload(probeSeq))
			}
		},
	})
	if err != nil {
		return nil, err
	}

	// Phase 1: steady-state traffic through node 1.
	if err := s.phase(cfg.PacketsPerPhase); err != nil {
		return nil, err
	}
	preRejects := p.Sacrificed.Load() // horizon-settled steady state should have none
	lagRecords := p.Standby().Stats().LagRecords

	// Crash node 1 and let the outage run: DPD probes go unanswered and the
	// peer declares the cluster peer dead (within the §6 hold time).
	p.Crash()
	crashAt := e.Now()
	e.RunFor(5 * time.Millisecond)

	// Epoch-fenced takeover; the promoted node announces itself with the §6
	// secured resurrection message, whose leaped sequence number the peer
	// necessarily accepts.
	epoch1, err := p.Takeover()
	if err != nil {
		return nil, err
	}
	for s.mon.State() != dpd.StateAlive {
		s.reply(0, dpd.ResyncPayload())
		e.RunFor(100 * time.Microsecond)
		if e.Now()-crashAt > time.Second {
			return nil, fmt.Errorf("peer never saw the resurrection (monitor %v)", s.mon.State())
		}
	}
	blackout := e.Now() - crashAt

	// Phase 2 through the promoted node: its false rejects are the failover
	// sacrifice, charged to the takeover's wake window.
	if err := s.phase(cfg.PacketsPerPhase / 2); err != nil {
		return nil, err
	}
	window, falseRejects := p.lastWindow()
	if err := p.ReplayAll(nil); err != nil {
		return nil, err
	}

	// Node 1 reboots and re-syncs as the standby of the interim primary.
	if err := p.Rejoin(); err != nil {
		return nil, err
	}
	if err := s.phase(cfg.PacketsPerPhase / 4); err != nil {
		return nil, err
	}

	// Failback as a SPLIT BRAIN: promote node 1 while the interim primary
	// is still up and writing. The fixture holds the failback node to the
	// interim primary's counters.
	epoch2, err := p.Takeover()
	if err != nil {
		return nil, err
	}

	// The deposed primary keeps writing: its journal is fenced, so every SA
	// stalls within its horizon — fewer than leap numbers each.
	gw2 := p.Deposed()
	leap := core.Leap(cfg.K, core.DefaultLeapFactor)
	deposedSeals := 0
	for i := 0; i < cfg.Tunnels; i++ {
		for n := 0; n < int(2*leap); n++ {
			if _, err := gw2.Seal(p.tunnels[i][1], p.tunnels[i][0], []byte("split-brain")); err != nil {
				break
			}
			deposedSeals++
		}
	}
	if deposedSeals > cfg.Tunnels*int(leap) {
		return nil, fmt.Errorf("deposed primary sealed %d packets, beyond its horizon (%d per SA)",
			deposedSeals, leap)
	}
	if err := gw2.Journal().Cell(ipsec.OutboundKey(0xB000)).Save(1 << 40); !errors.Is(err, store.ErrFenced) {
		return nil, fmt.Errorf("deposed journal write = %v, want ErrFenced", err)
	}

	// The failback node serves.
	if err := s.phase(cfg.PacketsPerPhase / 4); err != nil {
		return nil, err
	}
	if err := p.ReplayAll(nil); err != nil {
		return nil, err
	}
	if err := p.Check(); err != nil {
		return nil, err
	}

	return []string{
		fmt.Sprintf("%.0f%%", loss*100),
		fmt.Sprint(p.Delivered.Load()),
		fmt.Sprint(lagRecords),
		fmt.Sprint(window.lag),
		fmt.Sprintf("%d (pre %d)", falseRejects, preRejects),
		fmt.Sprint(window.bound),
		fmt.Sprint(blackout),
		fmt.Sprint(p.replays),
		fmt.Sprint(deposedSeals),
		fmt.Sprintf("%d->%d", epoch1, epoch2),
		"0", // regressions: Check fails the row on any
	}, nil
}
