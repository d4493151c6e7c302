package experiments

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"syscall"

	"antireplay/internal/ipsec"
	"antireplay/internal/store"
	"antireplay/internal/storefault"
)

// DiskfaultConfig parameterizes the storage fault-domain experiment.
type DiskfaultConfig struct {
	// Seed drives all randomness (key material).
	Seed int64
	// Packets is the per-SA traffic volume of each phase.
	Packets int
	// Lanes is the lane count of the single_lane_eio campaign (the storm
	// and compaction campaigns use small fixed lane counts — their point
	// is the fault shape, not the lane fan-out).
	Lanes int
}

// DefaultDiskfaultConfig runs the EIO campaign over 64 lanes, so the
// one-quarantined-lane row prices exactly the 1/64 fault domain.
func DefaultDiskfaultConfig() DiskfaultConfig {
	return DiskfaultConfig{Seed: 1, Packets: 40, Lanes: 64}
}

const diskfaultK = 8 // SAVE interval of every diskfault gateway

// diskRow is one campaign's raw accounting before formatting.
type diskRow struct {
	fault       string // the injected fault schedule, human form
	lanes       int    // lane count of the victim medium
	quarantined int    // lanes poisoned at the end of the faulted phase
	sent        int    // data packets sealed at the sender
	delivered   int    // unique payloads delivered
	stalled     int    // packets refused by a quarantined lane's horizon stall
	healthyOK   bool   // every SA off the faulted lanes delivered everything
	replays     int    // wires delivered more than once (the hard SLO: 0)
	detail      string // campaign-side accounting
}

func (r diskRow) goodput() float64 {
	if r.sent == 0 {
		return 0
	}
	return float64(r.delivered) / float64(r.sent)
}

// Diskfault runs the three disk-chaos campaigns — an fsync storm across
// several lanes, ENOSPC aimed at compaction, and a single dead lane under
// live replication — and asserts the fault-domain SLOs:
//
//   - zero replay acceptances: replaying the full wiretap history after
//     the faults (and after the repair) re-delivers nothing;
//   - zero counter regressions: no SA's durable counter ever moves
//     backwards, not across quarantine and not across repair;
//   - bounded degradation: only SAs on a quarantined lane stall (at the
//     durable horizon, after the bounded 2K grace the leap allows), and
//     every SA on a healthy lane keeps full throughput — the blast radius
//     is the lane, never the gateway;
//   - transient faults cost nothing: ENOSPC during compaction is retried
//     on the old log and ENOSPC on a lane write is rescued by an
//     immediate compaction, with no quarantine and no stranded temp
//     files;
//   - repair restores service: after the injector is disarmed, the
//     standby-assisted lane repair plus a wake brings the quarantined
//     lane's SAs back to delivering.
func Diskfault(cfg DiskfaultConfig) (*Table, error) {
	return diskfaultTable(cfg, "")
}

// DiskfaultOnly runs a single named campaign (resetsim's -diskfault flag).
func DiskfaultOnly(cfg DiskfaultConfig, name string) (*Table, error) {
	for _, n := range DiskfaultNames() {
		if n == name {
			return diskfaultTable(cfg, name)
		}
	}
	return nil, fmt.Errorf("experiments: unknown diskfault campaign %q (have %v)", name, DiskfaultNames())
}

// DiskfaultNames lists the campaign ids in presentation order.
func DiskfaultNames() []string {
	return []string{"fsync_storm", "enospc_compact", "single_lane_eio"}
}

func diskfaultTable(cfg DiskfaultConfig, only string) (*Table, error) {
	t := &Table{
		ID:    "diskfault",
		Title: "Storage fault domains: quarantine, bounded degradation, lane repair",
		Note: "Each campaign injects scheduled I/O faults under a live gateway. " +
			"Expect replay_accepts = 0 and healthy_goodput = 100% on every row: a " +
			"poisoned lane quarantines alone (its SAs stall at the durable " +
			"horizon after the bounded 2K grace) while every other lane keeps " +
			"full throughput. ENOSPC rows are transient: rescued by compaction, " +
			"no quarantine, no stranded temps. The EIO row repairs the dead " +
			"lane from the standby's replica and the stalled SAs resume.",
		Columns: []string{"campaign", "fault", "lanes", "quarantined", "sent",
			"delivered", "stalled", "goodput", "healthy_goodput", "floor", "replay_accepts", "detail"},
	}

	specs := []struct {
		campaign string
		floor    float64
		run      func() (diskRow, error)
	}{
		{"fsync_storm", 0.75, func() (diskRow, error) { return fsyncStormRow(cfg) }},
		{"enospc_compact", 0.99, func() (diskRow, error) { return enospcCompactRow(cfg) }},
		{"single_lane_eio", 0.75, func() (diskRow, error) { return singleLaneEIORow(cfg) }},
	}

	for _, spec := range specs {
		if only != "" && spec.campaign != only {
			continue
		}
		row, err := spec.run()
		if err != nil {
			return nil, fmt.Errorf("experiments: diskfault %s: %w", spec.campaign, err)
		}
		if !row.healthyOK {
			return nil, fmt.Errorf("experiments: diskfault %s: an SA on a healthy lane lost throughput", spec.campaign)
		}
		if g := row.goodput(); g < spec.floor {
			return nil, fmt.Errorf("experiments: diskfault %s: goodput %.3f below floor %.2f",
				spec.campaign, g, spec.floor)
		}
		healthy := "100%"
		t.AddRow(spec.campaign, row.fault, fmt.Sprint(row.lanes), fmt.Sprint(row.quarantined),
			fmt.Sprint(row.sent), fmt.Sprint(row.delivered), fmt.Sprint(row.stalled),
			fmt.Sprintf("%.1f%%", 100*row.goodput()), healthy,
			fmt.Sprintf("%.0f%%", 100*spec.floor), fmt.Sprint(row.replays), row.detail)
	}
	return t, nil
}

// newDiskPair builds one campaign's gateway pair: the receiver's
// laneCount lanes sit on in, and SAs are added lane by lane until each
// lane hosts perLane of them (probing SPIs through the lane hash), so the
// traffic exercises each fault domain and "every other lane at full
// throughput" is a claim about all of them. It returns each SA's lane and
// a count of the lanes the poison hook reported. opts apply to every node.
func newDiskPair(cfg DiskfaultConfig, scenario string, in *storefault.Injector, laneCount, perLane int,
	opts ...store.LanesOption) (*GatewayPair, []int, *atomic.Int32, error) {
	poisoned := new(atomic.Int32)
	p, err := NewGatewayPair(PairSetup{
		Scenario: "diskfault " + scenario, Seed: cfg.Seed, K: diskfaultK, W: 64, Lanes: laneCount,
		Options: opts,
		ReceiverOptions: []store.LanesOption{
			store.LanesWithFS(in),
			store.LanesOnPoison(func(int, error) { poisoned.Add(1) }),
		},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var lanes []int
	fill := make([]int, laneCount)
	for spi, full := uint32(0xD100_0000), 0; full < laneCount; spi++ {
		lane := p.Receiver().Journal().Cell(ipsec.InboundKey(spi)).Lane()
		if fill[lane] >= perLane {
			continue
		}
		if _, err := p.AddTunnel(spi, 0, ipsec.KeyMaterial{}, ipsec.KeyMaterial{}); err != nil {
			p.Close()
			return nil, nil, nil, err
		}
		lanes = append(lanes, lane)
		if fill[lane]++; fill[lane] == perLane {
			full++
		}
	}
	return p, lanes, poisoned, nil
}

// diskPhase sends n packets on every SA, returning per-SA first deliveries.
func diskPhase(p *GatewayPair, sas, n int, tag string) ([]int, error) {
	got := make([]int, sas)
	for k := 0; k < n; k++ {
		for i := range got {
			ok, err := p.Send(i, []byte(fmt.Sprintf("%s-%03d-%06d", tag, i, k)))
			if err != nil {
				return nil, err
			}
			if ok {
				got[i]++
			}
		}
	}
	return got, nil
}

// laneFile is the substring an injected fault uses to target one lane of
// the receiver's medium: the base name of that lane's log.
func laneFile(p *GatewayPair, lane int) string {
	return filepath.Base(p.Receiver().Journal().LaneJournals()[lane].Path())
}

// fsyncStormRow quarantines several lanes at once: every fsync on lanes 0
// and 1 fails, forever, mid-traffic. The first failed SAVE poisons each —
// never retried, per fsyncgate — and only their SAs stall; the storm must
// not leak into the other lanes' throughput, and the full-history replay
// must still deliver nothing twice.
func fsyncStormRow(cfg DiskfaultConfig) (diskRow, error) {
	const stormLanes = 8
	in := storefault.NewInjector(nil)
	p, lanes, poisoned, err := newDiskPair(cfg, "fsync_storm", in, stormLanes, 2)
	if err != nil {
		return diskRow{}, err
	}
	defer p.Close()

	if _, err := diskPhase(p, len(lanes), cfg.Packets, "storm"); err != nil {
		return diskRow{}, err
	}
	p.checkpoint()

	faulted := []int{0, 1}
	in.Arm(
		storefault.Fault{Op: storefault.OpSync, Path: laneFile(p, 0), Err: syscall.EIO},
		storefault.Fault{Op: storefault.OpSync, Path: laneFile(p, 1), Err: syscall.EIO},
	)
	got, err := diskPhase(p, len(lanes), cfg.Packets, "storm2")
	if err != nil {
		return diskRow{}, err
	}

	row := diskRow{
		fault: "fsync EIO forever on 2 lanes",
		lanes: stormLanes,
		sent:  2 * cfg.Packets * len(lanes),
	}
	isFaulted := func(lane int) bool { return lane == faulted[0] || lane == faulted[1] }
	row.healthyOK = true
	stalledSAs := 0
	for i, lane := range lanes {
		if isFaulted(lane) {
			if got[i] >= cfg.Packets {
				return diskRow{}, fmt.Errorf("SA %d on quarantined lane %d never stalled", i, lane)
			}
			stalledSAs++
			row.stalled += cfg.Packets - got[i]
		} else if got[i] != cfg.Packets {
			row.healthyOK = false
		}
	}
	if q := p.Receiver().Journal().Quarantined(); len(q) != 2 || !isFaulted(q[0]) || !isFaulted(q[1]) {
		return diskRow{}, fmt.Errorf("quarantined lanes %v, want %v", q, faulted)
	}
	if d := p.Receiver().Degraded(); len(d) != 2 {
		return diskRow{}, fmt.Errorf("gateway degraded %v, want both faulted lanes", d)
	}
	if n := poisoned.Load(); n != 2 {
		return diskRow{}, fmt.Errorf("poison hook fired %d times, want 2", n)
	}
	if err := p.ReplayAll(nil); err != nil {
		return diskRow{}, err
	}
	if err := p.Check(); err != nil {
		return diskRow{}, err
	}
	row.quarantined = 2
	row.delivered = int(p.Delivered.Load())
	row.replays = p.replays
	row.detail = fmt.Sprintf("%d SAs stalled at horizon, %d faults fired", stalledSAs, in.Fired())
	return row, nil
}

// enospcCompactRow prices the transient full disk: first ENOSPC eats two
// compaction temp writes (retried on the old log, temps removed, no
// quarantine), then one lane write fails ENOSPC and the journal rescues
// itself by compacting in place of the failed batch. Everything stays
// delivered and no temp file strands.
func enospcCompactRow(cfg DiskfaultConfig) (diskRow, error) {
	const compactLanes = 4
	in := storefault.NewInjector(nil)
	p, lanes, _, err := newDiskPair(cfg, "enospc_compact", in, compactLanes, 2,
		store.LanesWithoutSync(), store.LanesCompactAt(256))
	if err != nil {
		return diskRow{}, err
	}
	defer p.Close()

	// Phase 1 under compaction ENOSPC: the temp write fails, the old log
	// stays authoritative, and the crossing is retried until the fault
	// budget runs out.
	in.Arm(storefault.Fault{Op: storefault.OpWrite, Path: ".compact", Count: 2, Err: syscall.ENOSPC})
	n := 4 * cfg.Packets // enough appends to cross the 256 B threshold repeatedly
	got, err := diskPhase(p, len(lanes), n, "enospc")
	if err != nil {
		return diskRow{}, err
	}
	compactFired := in.Fired()
	if compactFired < 2 {
		return diskRow{}, fmt.Errorf("compaction ENOSPC fired %d times, want 2 (threshold never crossed?)", compactFired)
	}
	compactions := p.Receiver().Journal().Compactions()
	if compactions == 0 {
		return diskRow{}, errors.New("compaction never succeeded after the transient ENOSPC")
	}

	// Phase 2 on a fresh pair whose threshold is never crossed (default
	// compactAt), so the one-shot ENOSPC can only land on a commit's
	// write step: the journal rescues by compacting in place of the
	// failed batch — the batch is durable via the snapshot, nothing
	// poisons, no waiter sees an error. (On the first pair the fault
	// could land on a threshold compaction's own temp write instead,
	// which is the already-priced phase-1 shape.)
	in2 := storefault.NewInjector(nil)
	p2, _, _, err := newDiskPair(cfg, "enospc_compact rescue", in2, compactLanes, 2, store.LanesWithoutSync())
	if err != nil {
		return diskRow{}, err
	}
	defer p2.Close()
	in2.Arm(storefault.Fault{Op: storefault.OpWrite, Path: laneFile(p2, 0), Count: 1, Err: syscall.ENOSPC})
	got2, err := diskPhase(p2, len(lanes), n, "enospc2")
	if err != nil {
		return diskRow{}, err
	}

	row := diskRow{
		fault:     "ENOSPC x2 at compact temp, x1 at lane write",
		lanes:     compactLanes,
		sent:      2 * n * len(lanes),
		healthyOK: true,
	}
	for i := range lanes {
		if got[i] != n || got2[i] != n {
			row.healthyOK = false
		}
	}
	if q := p.Receiver().Journal().Quarantined(); len(q) != 0 {
		return diskRow{}, fmt.Errorf("transient ENOSPC quarantined lanes %v, want none", q)
	}
	if q := p2.Receiver().Journal().Quarantined(); len(q) != 0 {
		return diskRow{}, fmt.Errorf("rescued ENOSPC quarantined lanes %v, want none", q)
	}
	var rescues uint64
	for _, j := range p2.Receiver().Journal().LaneJournals() {
		rescues += j.Rescues()
	}
	if rescues == 0 {
		return diskRow{}, errors.New("lane-write ENOSPC was never rescued by compaction")
	}
	for _, q := range []*GatewayPair{p, p2} {
		strays, err := filepath.Glob(filepath.Join(q.Receiver().Journal().Path(), "*.compact*"))
		if err != nil {
			return diskRow{}, err
		}
		if len(strays) != 0 {
			return diskRow{}, fmt.Errorf("stranded compaction temps: %v", strays)
		}
		if err := q.ReplayAll(nil); err != nil {
			return diskRow{}, err
		}
		if err := q.Check(); err != nil {
			return diskRow{}, err
		}
	}
	row.delivered = int(p.Delivered.Load() + p2.Delivered.Load())
	row.replays = p.replays + p2.replays
	row.detail = fmt.Sprintf("%d faults fired, %d rescues, %d compactions, 0 stray temps",
		compactFired+in2.Fired(), rescues, compactions)
	return row, nil
}

// singleLaneEIORow kills one lane of cfg.Lanes under live replication:
// every write to that lane fails EIO, forever, while a cluster standby
// tails the medium. Only that lane quarantines and only its SA stalls —
// the other lanes keep full throughput. Then the "disk is replaced"
// (injector disarmed), the lane is repaired from the standby's replica,
// the SAs are woken, and traffic on the dead lane resumes.
func singleLaneEIORow(cfg DiskfaultConfig) (diskRow, error) {
	in := storefault.NewInjector(nil)
	p, lanes, _, err := newDiskPair(cfg, "single_lane_eio", in, cfg.Lanes, 1, store.LanesWithoutSync())
	if err != nil {
		return diskRow{}, err
	}
	defer p.Close()
	if err := p.StartStandby(); err != nil {
		return diskRow{}, err
	}

	got1, err := diskPhase(p, len(lanes), cfg.Packets, "eio")
	if err != nil {
		return diskRow{}, err
	}
	for i, g := range got1 {
		if g != cfg.Packets {
			return diskRow{}, fmt.Errorf("pre-fault SA %d delivered %d/%d", i, g, cfg.Packets)
		}
	}
	p.checkpoint()

	// Kill the last lane's disk: every write EIO, forever.
	dead := cfg.Lanes - 1
	in.Arm(storefault.Fault{Op: storefault.OpWrite, Path: laneFile(p, dead), Err: syscall.EIO})
	got2, err := diskPhase(p, len(lanes), cfg.Packets, "eio2")
	if err != nil {
		return diskRow{}, err
	}

	row := diskRow{
		fault:       fmt.Sprintf("write EIO forever on lane %d (replicated)", dead),
		lanes:       cfg.Lanes,
		quarantined: 1,
		healthyOK:   true,
	}
	for i, lane := range lanes {
		if lane == dead {
			if got2[i] >= cfg.Packets {
				return diskRow{}, fmt.Errorf("SA %d on dead lane %d never stalled", i, dead)
			}
			row.stalled += cfg.Packets - got2[i]
		} else if got2[i] != cfg.Packets {
			row.healthyOK = false
		}
	}
	if q := p.Receiver().Journal().Quarantined(); len(q) != 1 || q[0] != dead {
		return diskRow{}, fmt.Errorf("quarantined lanes %v, want [%d]", q, dead)
	}
	if d := p.Receiver().Degraded(); len(d) != 1 || d[0] != dead {
		return diskRow{}, fmt.Errorf("gateway degraded %v, want [%d]", d, dead)
	}

	// Replace the disk and repair the lane from the standby's replica,
	// then wake the population (FETCH + 2K leap + SAVE) so the stalled
	// SA's horizon unfreezes.
	in.Disarm()
	if err := p.Standby().RepairSourceLane(dead); err != nil {
		return diskRow{}, fmt.Errorf("standby lane repair: %w", err)
	}
	if q := p.Receiver().Journal().Quarantined(); len(q) != 0 {
		return diskRow{}, fmt.Errorf("lanes still quarantined after repair: %v", q)
	}
	if err := p.Wake(); err != nil {
		return diskRow{}, fmt.Errorf("post-repair wake: %w", err)
	}

	// Phase 3: the wake leap sacrifices at most 2K fresh packets per SA
	// (the paper's bounded wake bill); past that, every lane — the
	// repaired one included — must deliver again.
	got3, err := diskPhase(p, len(lanes), cfg.Packets, "eio3")
	if err != nil {
		return diskRow{}, err
	}
	wakeBill := 2 * int(diskfaultK)
	resumed := 0
	for i, lane := range lanes {
		if got3[i] < cfg.Packets-wakeBill-1 {
			return diskRow{}, fmt.Errorf("post-repair SA %d (lane %d) delivered %d/%d, want >= %d",
				i, lane, got3[i], cfg.Packets, cfg.Packets-wakeBill-1)
		}
		if lane == dead {
			resumed = got3[i]
			if got3[i] == 0 {
				return diskRow{}, errors.New("repaired lane's SA never resumed")
			}
		}
	}
	var repairs uint64
	for _, j := range p.Receiver().Journal().LaneJournals() {
		repairs += j.Repairs()
	}
	if repairs != 1 {
		return diskRow{}, fmt.Errorf("repairs counter %d, want 1", repairs)
	}
	if err := p.ReplayAll(nil); err != nil {
		return diskRow{}, err
	}
	if err := p.Check(); err != nil {
		return diskRow{}, err
	}
	row.sent = 3 * cfg.Packets * len(lanes)
	row.delivered = int(p.Delivered.Load())
	row.replays = p.replays
	row.detail = fmt.Sprintf("repaired lane %d from standby, SA resumed %d pkts", dead, resumed)
	return row, nil
}
