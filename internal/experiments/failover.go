package experiments

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"antireplay/internal/cluster"
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

// failoverSim bundles one row's topology and accounting.
type failoverSim struct {
	cfg  FailoverConfig
	loss float64

	e   *netsim.Engine
	A   *ipsec.Gateway // the surviving peer
	cur *ipsec.Gateway // current B-side primary (swapped by promotions)
	mon *dpd.Monitor

	abSPI, baSPI []uint32

	history   [][]byte        // every A->B wire ever sealed (data + probes)
	delivered map[string]bool // wire -> delivered at least once

	nDelivered   int
	nFalseReject int
	nLost        int
}

func (s *failoverSim) addrA(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
}
func (s *failoverSim) addrB(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
}

// sealA seals one A->B payload on tunnel i, retrying save-lag backpressure.
func (s *failoverSim) sealA(i int, payload []byte) ([]byte, error) {
	for tries := 0; ; tries++ {
		w, err := s.A.Seal(s.addrA(i), s.addrB(i), payload)
		if err == nil {
			s.history = append(s.history, w)
			return w, nil
		}
		if !errors.Is(err, core.ErrSaveLag) || tries > 100000 {
			return nil, fmt.Errorf("seal A tunnel %d: %w", i, err)
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// openB opens one wire at the current B-side primary, deferring through
// horizon backpressure; reports whether it delivered.
func (s *failoverSim) openB(w []byte) (bool, error) {
	for tries := 0; ; tries++ {
		payload, v, err := s.cur.Open(w)
		if err != nil {
			return false, nil // down/unknown-SPI during a swap: network loss
		}
		if v == core.VerdictHorizon && tries < 100000 {
			time.Sleep(10 * time.Microsecond)
			continue
		}
		if !v.Delivered() {
			return false, nil
		}
		s.delivered[string(w)] = true
		// Control payloads: a probe is answered on the reverse SA.
		if kind, probeSeq, ok := dpd.ParsePayload(payload); ok && kind == "probe" {
			s.sendToA(0, dpd.AckPayload(probeSeq))
		}
		return true, nil
	}
}

// sendToA seals a B->A payload on tunnel i at the current primary and
// delivers it to A (subject to loss), feeding the DPD monitor.
func (s *failoverSim) sendToA(i int, payload []byte) {
	for tries := 0; ; tries++ {
		w, err := s.cur.Seal(s.addrB(i), s.addrA(i), payload)
		if err != nil {
			if errors.Is(err, core.ErrSaveLag) && tries < 100000 {
				time.Sleep(10 * time.Microsecond)
				continue
			}
			return // down, draining, fenced: the reply is simply not sent
		}
		if s.e.Rand().Float64() < s.loss {
			return
		}
		pl, v, err := s.A.Open(w)
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
		return
	}
}

// phase drives rounds of bidirectional traffic across every tunnel,
// counting deliveries, network losses, and false rejects (a non-lost fresh
// packet the receiver discarded).
func (s *failoverSim) phase(rounds int) error {
	const interval = 20 * time.Microsecond
	for n := 0; n < rounds; n++ {
		for i := 0; i < s.cfg.Tunnels; i++ {
			w, err := s.sealA(i, []byte(fmt.Sprintf("data %d/%d", n, i)))
			if err != nil {
				return err
			}
			if s.e.Rand().Float64() < s.loss {
				s.nLost++
			} else {
				ok, err := s.openB(w)
				if err != nil {
					return err
				}
				if ok {
					s.nDelivered++
				} else {
					s.nFalseReject++
				}
			}
			// The echo keeps the peer's DPD monitor fed.
			s.sendToA(i, []byte("echo"))
		}
		s.e.RunFor(interval)
	}
	return nil
}

// replayAll replays the full recorded history into the current primary and
// counts re-deliveries of wires that already delivered once.
func (s *failoverSim) replayAll() int {
	replays := 0
	for _, w := range s.history {
		_, v, _ := s.cur.Open(w)
		if v.Delivered() {
			if s.delivered[string(w)] {
				replays++
			}
			s.delivered[string(w)] = true
		}
	}
	return replays
}

func failoverRow(cfg FailoverConfig, loss float64) ([]string, error) {
	dir, err := os.MkdirTemp("", "failover-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Each node's medium, with cfg.Lanes commit lanes (the same helper
	// is the failback reboot path, which must come back on the same medium
	// shape).
	openJ := func(name string) (*store.Lanes, error) {
		return store.OpenLanes(filepath.Join(dir, name),
			store.LanesCount(max(cfg.Lanes, 1)), store.LanesWithoutSync())
	}
	jA, err := openJ("peer")
	if err != nil {
		return nil, err
	}
	defer jA.Close()
	j1, err := openJ("node1")
	if err != nil {
		return nil, err
	}
	defer j1.Close()
	j2, err := openJ("node2")
	if err != nil {
		return nil, err
	}
	defer j2.Close()

	s := &failoverSim{
		cfg: cfg, loss: loss,
		e:         netsim.NewEngine(cfg.Seed),
		delivered: make(map[string]bool),
	}
	rng := s.e.Rand()
	keys := func() ipsec.KeyMaterial {
		k := ipsec.KeyMaterial{AuthKey: make([]byte, ipsec.AuthKeySize)}
		rng.Read(k.AuthKey)
		return k
	}

	if s.A, err = ipsec.NewGateway(ipsec.GatewayConfig{Journal: jA, K: cfg.K}); err != nil {
		return nil, err
	}
	defer s.A.Close()
	B1, err := ipsec.NewGateway(ipsec.GatewayConfig{Journal: j1, K: cfg.K})
	if err != nil {
		return nil, err
	}
	defer B1.Close()
	s.cur = B1

	for i := 0; i < cfg.Tunnels; i++ {
		ab, ba := uint32(0xA000+i), uint32(0xB000+i)
		s.abSPI = append(s.abSPI, ab)
		s.baSPI = append(s.baSPI, ba)
		kAB, kBA := keys(), keys()
		selAB := ipsec.Selector{Src: netip.PrefixFrom(s.addrA(i), 32), Dst: netip.PrefixFrom(s.addrB(i), 32)}
		selBA := ipsec.Selector{Src: netip.PrefixFrom(s.addrB(i), 32), Dst: netip.PrefixFrom(s.addrA(i), 32)}
		if _, err := s.A.AddOutbound(ab, kAB, selAB); err != nil {
			return nil, err
		}
		if _, err := s.A.AddInbound(ba, kBA); err != nil {
			return nil, err
		}
		if _, err := B1.AddInbound(ab, kAB); err != nil {
			return nil, err
		}
		if _, err := B1.AddOutbound(ba, kBA, selBA); err != nil {
			return nil, err
		}
	}

	sb, err := cluster.NewStandby(cluster.Config{Source: j1, Journal: j2, K: cfg.K})
	if err != nil {
		return nil, err
	}
	defer sb.Stop()
	if err := sb.Start(); err != nil {
		return nil, err
	}
	if err := sb.Mirror(B1.Snapshot()); err != nil {
		return nil, err
	}

	// Dead-peer detection on the surviving peer, probing over tunnel 0.
	s.mon, err = dpd.NewMonitor(dpd.Config{
		Engine:      s.e,
		IdleTimeout: time.Millisecond,
		AckTimeout:  500 * time.Microsecond,
		MaxProbes:   2,
		HoldTime:    time.Second,
		SendProbe: func(probeSeq uint64) {
			w, err := s.sealA(0, dpd.ProbePayload(probeSeq))
			if err != nil {
				return
			}
			if s.e.Rand().Float64() < s.loss {
				return
			}
			s.openB(w) //nolint:errcheck // an unanswered probe IS the signal
		},
	})
	if err != nil {
		return nil, err
	}

	// Phase 1: steady-state traffic through node 1.
	if err := s.phase(cfg.PacketsPerPhase); err != nil {
		return nil, err
	}
	preRejects := s.nFalseReject // horizon-settled steady state should have none

	// Capture the crash-instant truth: per-tunnel receive edges and used
	// send counters on the primary, and the replication gauges.
	edgeAtCrash := make([]uint64, cfg.Tunnels)
	for i, ab := range s.abSPI {
		in, _ := B1.SAD().Lookup(ab)
		edgeAtCrash[i] = in.Receiver().Edge()
	}
	lagRecords := sb.Stats().LagRecords
	lagValues := sb.LagValues()

	// Crash node 1 and let the outage run: DPD probes go unanswered and the
	// peer declares the cluster peer dead (within the §6 hold time).
	B1.ResetAll()
	crashAt := s.e.Now()
	s.e.RunFor(5 * time.Millisecond)

	// Epoch-fenced takeover; the promoted node announces itself with the §6
	// secured resurrection message, whose leaped sequence number the peer
	// necessarily accepts.
	gw2, epoch1, err := sb.Takeover()
	if err != nil {
		return nil, err
	}
	s.cur = gw2
	for s.mon.State() != dpd.StateAlive {
		s.sendToA(0, dpd.ResyncPayload())
		s.e.RunFor(100 * time.Microsecond)
		if s.e.Now()-crashAt > time.Second {
			return nil, fmt.Errorf("peer never saw the resurrection (monitor %v)", s.mon.State())
		}
	}
	blackout := s.e.Now() - crashAt

	// The false-reject window is exactly (wake edge - crash edge) per SA.
	var windowBound uint64
	for i, ab := range s.abSPI {
		in, ok := gw2.SAD().Lookup(ab)
		if !ok {
			return nil, fmt.Errorf("promoted gateway lacks inbound %#x", ab)
		}
		wake := in.Receiver().Edge()
		if wake < edgeAtCrash[i] {
			return nil, fmt.Errorf("tunnel %d: wake edge %d below crash edge %d (replay window!)",
				i, wake, edgeAtCrash[i])
		}
		windowBound += wake - edgeAtCrash[i]
	}
	leap := core.Leap(cfg.K, core.DefaultLeapFactor)
	if bound := lagValues + uint64(cfg.Tunnels)*(leap+2*cfg.K); windowBound > bound {
		return nil, fmt.Errorf("window bound %d exceeds lag-derived bound %d (lag_values=%d)",
			windowBound, bound, lagValues)
	}

	// Phase 2 through the promoted node; its false rejects are the failover
	// sacrifice and must fit the window.
	s.nFalseReject = 0
	if err := s.phase(cfg.PacketsPerPhase / 2); err != nil {
		return nil, err
	}
	falseRejects := s.nFalseReject
	if uint64(falseRejects) > windowBound {
		return nil, fmt.Errorf("false rejects %d exceed window bound %d", falseRejects, windowBound)
	}
	replays := s.replayAll()

	// Node 1 reboots and re-syncs as the standby of the interim primary.
	B1.Close()
	if err := j1.Close(); err != nil {
		return nil, err
	}
	j1b, err := openJ("node1")
	if err != nil {
		return nil, err
	}
	defer j1b.Close()
	sb2, err := cluster.NewStandby(cluster.Config{Source: j2, Journal: j1b, K: cfg.K})
	if err != nil {
		return nil, err
	}
	defer sb2.Stop()
	if err := sb2.Start(); err != nil {
		return nil, err
	}
	if err := sb2.Mirror(gw2.Snapshot()); err != nil {
		return nil, err
	}
	if err := s.phase(cfg.PacketsPerPhase / 4); err != nil {
		return nil, err
	}

	// Failback as a SPLIT BRAIN: promote node 1 while the interim primary
	// is still up and writing. Record the interim primary's used counters
	// first — the regression check.
	used2 := make([]uint64, cfg.Tunnels)
	for i, ba := range s.baSPI {
		out, _ := gw2.Outbound(ba)
		used2[i] = out.Sender().Seq()
	}
	gw3, epoch2, err := sb2.Takeover()
	if err != nil {
		return nil, err
	}

	// The deposed primary keeps writing: its journal is fenced, so every SA
	// stalls within its horizon — fewer than leap numbers each.
	deposedSeals := 0
	for i := 0; i < cfg.Tunnels; i++ {
		for n := 0; n < int(2*leap); n++ {
			if _, err := gw2.Seal(s.addrB(i), s.addrA(i), []byte("split-brain")); err != nil {
				break
			}
			deposedSeals++
		}
	}
	if deposedSeals > cfg.Tunnels*int(leap) {
		return nil, fmt.Errorf("deposed primary sealed %d packets, beyond its horizon (%d per SA)",
			deposedSeals, leap)
	}
	if err := j2.Cell(ipsec.OutboundKey(s.baSPI[0])).Save(1 << 40); !errors.Is(err, store.ErrFenced) {
		return nil, fmt.Errorf("deposed journal write = %v, want ErrFenced", err)
	}

	// The failback node serves; counters must not have regressed.
	s.cur = gw3
	regressions := 0
	for i, ba := range s.baSPI {
		out, ok := gw3.Outbound(ba)
		if !ok {
			return nil, fmt.Errorf("failback gateway lacks outbound %#x", ba)
		}
		if out.Sender().Seq() < used2[i] {
			regressions++
		}
	}
	if err := s.phase(cfg.PacketsPerPhase / 4); err != nil {
		return nil, err
	}
	replays += s.replayAll()

	return []string{
		fmt.Sprintf("%.0f%%", loss*100),
		fmt.Sprint(s.nDelivered),
		fmt.Sprint(lagRecords),
		fmt.Sprint(lagValues),
		fmt.Sprintf("%d (pre %d)", falseRejects, preRejects),
		fmt.Sprint(windowBound),
		fmt.Sprint(blackout),
		fmt.Sprint(replays),
		fmt.Sprint(deposedSeals),
		fmt.Sprintf("%d->%d", epoch1, epoch2),
		fmt.Sprint(regressions),
	}, nil
}
