package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"antireplay/internal/adversary"
	"antireplay/internal/cluster"
	"antireplay/internal/core"
	"antireplay/internal/ike"
	"antireplay/internal/ipsec"
	"antireplay/internal/rekey"
	"antireplay/internal/store"
	"antireplay/internal/tunnel"
	"antireplay/internal/wire"
)

// CampaignsConfig parameterizes the stealth-DoS campaign experiment.
type CampaignsConfig struct {
	// Seed drives all randomness (key material, IKE nonces).
	Seed int64
	// Packets scales each row's traffic phases.
	Packets int
}

// DefaultCampaignsConfig runs each campaign over ~600-packet phases.
func DefaultCampaignsConfig() CampaignsConfig {
	return CampaignsConfig{Seed: 1, Packets: 600}
}

// campRow is one row's raw accounting before formatting.
type campRow struct {
	defense   string // the defense-knob setting this row prices
	sent      int    // data packets the victim sender emitted
	delivered int    // unique payloads the victim receiver delivered
	cost      string // campaign-side cost/effect accounting
	replays   int    // wires delivered more than once (the hard SLO: 0)

	// rollover bookkeeping, used by the rekey_cutover rows only.
	abandoned, rollovers uint64
}

func (r campRow) goodput() float64 {
	if r.sent == 0 {
		return 0
	}
	return float64(r.delivered) / float64(r.sent)
}

// Campaigns runs the four stealth-DoS campaigns of the adversary layer,
// each twice — once against a baseline configuration and once against a
// hardened one — and asserts the bounded-degradation SLOs:
//
//   - goodput >= the row's configured floor (the attack's damage is
//     bounded, and the bound is priced in the table);
//   - zero replay acceptances: no wire is ever delivered twice, not even
//     under edge-adjacent duplicate injection or a recorded-traffic flood
//     into the failover wake window;
//   - each defense knob measurably improves its campaign's bound:
//     window sizing (W) recovers the sniper's hostages, a smaller SAVE
//     interval (K) shrinks both the storm-parked reset sacrifice and the
//     takeover wake window, and a deeper retry budget (MaxAttempts) rides
//     through exchange suppression without abandoning the rollover.
//
// Every campaign computes its decisions from bytes observable on the wire
// (cleartext ESP sequence numbers, SPI changes) plus protocol knowledge
// (K); none peeks at victim state.
func Campaigns(cfg CampaignsConfig) (*Table, error) {
	return campaignsTable(cfg, "")
}

// CampaignsOnly runs a single named campaign's baseline+hardened rows
// (resetsim's -campaign flag).
func CampaignsOnly(cfg CampaignsConfig, name string) (*Table, error) {
	for _, n := range CampaignNames() {
		if n == name {
			return campaignsTable(cfg, name)
		}
	}
	return nil, fmt.Errorf("experiments: unknown campaign %q (have %v)", name, CampaignNames())
}

// CampaignNames lists the campaign ids in presentation order.
func CampaignNames() []string {
	return []string{"window_edge", "save_storm", "rekey_cutover", "blackout_flood"}
}

func campaignsTable(cfg CampaignsConfig, only string) (*Table, error) {
	t := &Table{
		ID:    "campaigns",
		Title: "Stealth-DoS campaigns: bounded degradation, zero replay acceptance",
		Note: "Each campaign runs against a baseline and a hardened defense knob. " +
			"Expect goodput >= floor on every row and replay_accepts = 0 everywhere: " +
			"well-timed interference degrades goodput boundedly but never breaks " +
			"exactly-once delivery. The hardened rows price the knobs: wider W " +
			"recovers the window-edge sniper's hostages, smaller K shrinks the " +
			"storm-parked reset sacrifice and the takeover wake window (both " +
			"bounded by the leap, 2K), and a deeper IKE retry budget rides " +
			"through exchange suppression without abandoning the rollover.",
		Columns: []string{"campaign", "defense", "sent", "delivered", "goodput",
			"floor", "attack_cost", "replay_accepts"},
	}

	specs := []struct {
		campaign             string
		baseFloor, hardFloor float64
		run                  func(hardened bool) (campRow, error)
	}{
		{"window_edge", 0.90, 0.99, func(hardened bool) (campRow, error) {
			w := 64 // narrower than the snipe's HoldDepth: hostages land stale
			if hardened {
				w = 256 // wider: hostages land inside the window, merely late
			}
			return snipeRow(cfg, w)
		}},
		{"save_storm", 0.50, 0.72, func(hardened bool) (campRow, error) {
			k := uint64(240) // big K: wake leap 2K makes the parked reset expensive
			if hardened {
				k = 30 // adaptive-K defense: smaller leap, smaller sacrifice
			}
			return stormRow(cfg, k)
		}},
		{"rekey_cutover", 0.85, 0.85, func(hardened bool) (campRow, error) {
			attempts := 2 // shallow retry budget: suppression forces abandonment
			if hardened {
				attempts = 12 // outlasts the bounded suppression in one trigger
			}
			return rekeyCutRow(cfg, attempts)
		}},
		{"blackout_flood", 0.45, 0.82, func(hardened bool) (campRow, error) {
			k := uint64(200) // wake window after takeover ~ leap = 2K
			if hardened {
				k = 25
			}
			return floodRow(cfg, k)
		}},
	}

	for _, spec := range specs {
		if only != "" && spec.campaign != only {
			continue
		}
		base, err := spec.run(false)
		if err != nil {
			return nil, fmt.Errorf("experiments: campaign %s baseline: %w", spec.campaign, err)
		}
		hard, err := spec.run(true)
		if err != nil {
			return nil, fmt.Errorf("experiments: campaign %s hardened: %w", spec.campaign, err)
		}
		for _, r := range []struct {
			row   campRow
			floor float64
		}{{base, spec.baseFloor}, {hard, spec.hardFloor}} {
			if r.row.replays != 0 {
				return nil, fmt.Errorf("experiments: campaign %s (%s): %d replay acceptances",
					spec.campaign, r.row.defense, r.row.replays)
			}
			if g := r.row.goodput(); g < r.floor {
				return nil, fmt.Errorf("experiments: campaign %s (%s): goodput %.3f below floor %.2f",
					spec.campaign, r.row.defense, g, r.floor)
			}
		}
		// The knob must measurably improve the bound.
		switch spec.campaign {
		case "rekey_cutover":
			if base.abandoned == 0 || hard.abandoned != 0 {
				return nil, fmt.Errorf("experiments: campaign rekey_cutover: abandoned base=%d hard=%d, want >0 / 0",
					base.abandoned, hard.abandoned)
			}
			if base.rollovers == 0 || hard.rollovers == 0 {
				return nil, fmt.Errorf("experiments: campaign rekey_cutover: rollover never converged (base=%d hard=%d)",
					base.rollovers, hard.rollovers)
			}
		default:
			if hard.goodput() <= base.goodput() {
				return nil, fmt.Errorf("experiments: campaign %s: hardened goodput %.3f <= baseline %.3f",
					spec.campaign, hard.goodput(), base.goodput())
			}
		}
		for _, r := range []struct {
			row   campRow
			floor float64
		}{{base, spec.baseFloor}, {hard, spec.hardFloor}} {
			t.AddRow(spec.campaign, r.row.defense,
				fmt.Sprint(r.row.sent), fmt.Sprint(r.row.delivered),
				fmt.Sprintf("%.1f%%", 100*r.row.goodput()),
				fmt.Sprintf("%.0f%%", 100*r.floor),
				r.row.cost, fmt.Sprint(r.row.replays))
		}
	}
	return t, nil
}

// campLink is the receiver side of a gated path: everything the gate lets
// through is handed to deliver (set once the victim pair exists).
type campLink struct{ deliver func(p []byte) }

func (l *campLink) Send(p []byte) error {
	if l.deliver != nil {
		l.deliver(append([]byte(nil), p...))
	}
	return nil
}
func (l *campLink) Recv() ([]byte, error) { return nil, wire.ErrNoDatagram }
func (l *campLink) Close() error          { return nil }
func (l *campLink) Stats() wire.Stats     { return wire.Stats{} }
func (l *campLink) MTU() int              { return 64 << 10 }

func campIKE(seed int64, id string) ike.Config {
	return ike.Config{PSK: []byte("campaign-experiment"), Group: ike.TestGroup(),
		Rand: rand.New(rand.NewSource(seed)), ID: id}
}

// gatedPair builds a tunnel peer pair whose a->b direction crosses a
// GateLink, recording the full wiretap history and exactly-once delivery
// accounting at b.
type gatedPair struct {
	a, b    *tunnel.Peer
	gate    *wire.GateLink
	history [][]byte

	delivered map[string]bool
	nDeliver  int
	replays   int
}

func newGatedPair(cfg CampaignsConfig, k uint64, w int) (*gatedPair, error) {
	g := &gatedPair{delivered: make(map[string]bool)}
	link := &campLink{}
	g.gate = wire.NewGateLink(link)
	onData := func(p []byte) {
		if g.delivered[string(p)] {
			g.replays++
			return
		}
		g.delivered[string(p)] = true
		g.nDeliver++
	}
	a, b, err := tunnel.Pair(
		tunnel.Config{Name: "victim-p", K: k},
		tunnel.Config{Name: "victim-q", K: k, W: w, OnData: onData},
		campIKE(cfg.Seed+101, "p"), campIKE(cfg.Seed+102, "q"),
		func(wireBytes []byte, deliver func([]byte)) {
			link.deliver = deliver
			g.history = append(g.history, append([]byte(nil), wireBytes...))
			g.gate.Send(wireBytes) //nolint:errcheck // drops are the adversary's verdict
		}, nil)
	if err != nil {
		return nil, err
	}
	g.a, g.b = a, b
	return g, nil
}

// replayAll re-injects the entire wiretap history at b; OnData's
// exactly-once map turns any second delivery into a replay count.
func (g *gatedPair) replayAll() {
	for _, w := range g.history {
		g.b.Receive(w) //nolint:errcheck // rejections are the expected outcome
	}
}

// snipeRow prices the window-edge snipe against window width w: every
// 16th packet is held back 96 packets and re-released, plus an
// edge-adjacent duplicate injection every 10th. A window wider than the
// hold depth delivers the hostages late; a narrower one silently loses
// them (with ESN the deep-late packets fail ICV under the wrong inferred
// epoch — either way, goodput the victim never sees).
func snipeRow(cfg CampaignsConfig, w int) (campRow, error) {
	g, err := newGatedPair(cfg, 25, w)
	if err != nil {
		return campRow{}, err
	}
	snipe := adversary.NewWindowEdgeSnipe(adversary.SnipeConfig{
		HoldEvery: 16, HoldDepth: 96, DupEvery: 10,
	})
	if err := snipe.Arm(adversary.Hooks{Gate: g.gate}); err != nil {
		return campRow{}, err
	}
	snipe.Activate()
	n := cfg.Packets
	for i := 0; i < n; i++ {
		if err := g.a.Send([]byte(fmt.Sprintf("pkt-%06d", i))); err != nil {
			return campRow{}, err
		}
	}
	snipe.Deactivate()
	g.replayAll()
	st := snipe.Stats()
	return campRow{
		defense:   fmt.Sprintf("W=%d", w),
		sent:      n,
		delivered: g.nDeliver,
		cost:      fmt.Sprintf("held %d, dups %d", st.Held, st.DupsInjected),
		replays:   g.replays,
	}, nil
}

// stormRow prices the SAVE-storm against SAVE interval k: the storm
// drops the strike zone below every SAVE boundary (bounded cost,
// BurstLen per K), then the receiver is crashed at a Parked instant.
// The wake sacrifice is bounded by the leap (2K), so the adaptive-K
// defense — a smaller K — shrinks the reset bill the storm set up.
func stormRow(cfg CampaignsConfig, k uint64) (campRow, error) {
	g, err := newGatedPair(cfg, k, 64)
	if err != nil {
		return campRow{}, err
	}
	storm, err := adversary.NewSaveStorm(adversary.StormConfig{K: k})
	if err != nil {
		return campRow{}, err
	}
	if err := storm.Arm(adversary.Hooks{Gate: g.gate}); err != nil {
		return campRow{}, err
	}
	storm.Activate()
	sent := 0
	send := func() error {
		sent++
		return g.a.Send([]byte(fmt.Sprintf("s-%06d", sent)))
	}
	for i := 0; i < 2*cfg.Packets; i++ {
		if err := send(); err != nil {
			return campRow{}, err
		}
	}
	// Walk the sender into the strike zone so the crash lands at the
	// storm's point of maximal damage, then crash and wake the receiver.
	for extra := uint64(0); !storm.Parked() && extra < k; extra++ {
		if err := send(); err != nil {
			return campRow{}, err
		}
	}
	g.b.Reset()
	if err := g.b.Wake(); err != nil {
		return campRow{}, err
	}
	for i := 0; i < 2*cfg.Packets; i++ {
		if err := send(); err != nil {
			return campRow{}, err
		}
	}
	storm.Deactivate()
	g.replayAll()
	st := storm.Stats()
	return campRow{
		defense:   fmt.Sprintf("K=%d", k),
		sent:      sent,
		delivered: g.nDeliver,
		cost:      fmt.Sprintf("dropped %d, parked reset", st.Dropped),
		replays:   g.replays,
	}, nil
}

// rekeyCutRow prices exchange suppression against the retry budget: the
// campaign eats the first 6 exchange attempts and fires a 48-packet
// blackout at the cutover it cannot ultimately prevent. A shallow budget
// (MaxAttempts=2) abandons the trigger repeatedly before converging; a
// deep one rides the suppression out in a single trigger.
func rekeyCutRow(cfg CampaignsConfig, maxAttempts int) (campRow, error) {
	dir, err := os.MkdirTemp("", "campaign-rekey-*")
	if err != nil {
		return campRow{}, err
	}
	defer os.RemoveAll(dir)

	const k = 25
	payload := make([]byte, 280)
	mkGateway := func(name string) (*ipsec.Gateway, error) {
		j, err := store.OpenLanes(filepath.Join(dir, name), store.LanesCount(1), store.LanesWithoutSync())
		if err != nil {
			return nil, err
		}
		return ipsec.NewGateway(ipsec.GatewayConfig{
			Journal: j, K: k, W: 64,
			// The soft lifetime trips midway through phase 1.
			Lifetime: ipsec.Lifetime{SoftBytes: uint64(cfg.Packets) * 300 / 2},
		})
	}
	A, err := mkGateway("a")
	if err != nil {
		return campRow{}, err
	}
	defer func() { A.Close(); A.Journal().Close() }()
	B, err := mkGateway("b")
	if err != nil {
		return campRow{}, err
	}
	defer func() { B.Close(); B.Journal().Close() }()

	cut := adversary.NewRekeyCut(adversary.RekeyCutConfig{
		SuppressExchanges: 6, BlackoutPackets: 48,
	})
	var (
		history []([]byte)
		seen    = make(map[string]bool)
		row     campRow
	)
	open := func(w []byte) {
		for tries := 0; ; tries++ {
			_, v, err := B.Open(w)
			if err != nil {
				return
			}
			if v == core.VerdictHorizon && tries < 10000 {
				time.Sleep(10 * time.Microsecond)
				continue
			}
			if v.Delivered() {
				if seen[string(w)] {
					row.replays++
				} else {
					seen[string(w)] = true
					row.delivered++
				}
			}
			return
		}
	}
	link := &campLink{deliver: open}
	gate := wire.NewGateLink(link)
	if err := cut.Arm(adversary.Hooks{Gate: gate}); err != nil {
		return campRow{}, err
	}

	addrA := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	addrB := netip.AddrFrom4([4]byte{10, 0, 0, 2})
	send := func() error {
		for tries := 0; ; tries++ {
			w, err := A.Seal(addrA, addrB, payload)
			if err == nil {
				row.sent++
				history = append(history, w)
				return gate.Send(w)
			}
			if !errors.Is(err, core.ErrSaveLag) || tries > 10000 {
				return err
			}
			time.Sleep(10 * time.Microsecond)
		}
	}

	res, err := ike.Establish(campIKE(cfg.Seed+201, "init"), campIKE(cfg.Seed+202, "resp"))
	if err != nil {
		return campRow{}, err
	}
	kk := res.Keys
	sel := ipsec.Selector{Src: netip.PrefixFrom(addrA, 32), Dst: netip.PrefixFrom(addrB, 32)}
	if _, err := A.AddOutbound(kk.SPIInitToResp, kk.InitToResp, sel); err != nil {
		return campRow{}, err
	}
	if _, err := B.AddInbound(kk.SPIInitToResp, kk.InitToResp); err != nil {
		return campRow{}, err
	}
	// The reverse direction exists so the orchestrator can track the pair.
	selR := ipsec.Selector{Src: netip.PrefixFrom(addrB, 32), Dst: netip.PrefixFrom(addrA, 32)}
	if _, err := B.AddOutbound(kk.SPIRespToInit, kk.RespToInit, selR); err != nil {
		return campRow{}, err
	}
	if _, err := A.AddInbound(kk.SPIRespToInit, kk.RespToInit); err != nil {
		return campRow{}, err
	}

	var vt time.Duration
	exchangeSeed := cfg.Seed + 300
	o, err := rekey.New(rekey.Config{
		A: A, B: B,
		Grace:       time.Hour,
		MaxAttempts: maxAttempts,
		Clock:       func() time.Duration { vt += 10 * time.Microsecond; return vt },
		Observer: func(ev rekey.Event) {
			if ev.Kind == rekey.EventCutover {
				cut.OnCutover()
			}
		},
		Exchange: func(oldAB, oldBA uint32) (ike.ChildKeys, error) {
			if cut.SuppressExchange() {
				return ike.ChildKeys{}, fmt.Errorf("exchange messages eaten by the adversary")
			}
			exchangeSeed++
			ini, err := ike.NewRekeyInitiator(campIKE(exchangeSeed, "gw-a"), oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			rsp, err := ike.NewRekeyResponder(campIKE(exchangeSeed+1000, "gw-b"), oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			m1, err := ini.Request()
			if err != nil {
				return ike.ChildKeys{}, err
			}
			m2, err := rsp.HandleRequest(m1)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			if err := ini.HandleResponse(m2); err != nil {
				return ike.ChildKeys{}, err
			}
			return ini.ChildKeys(), nil
		},
	})
	if err != nil {
		return campRow{}, err
	}
	if _, err := o.Track(kk.SPIInitToResp, kk.SPIRespToInit); err != nil {
		return campRow{}, err
	}

	// Phase 1: traffic past the soft lifetime, then the attack window
	// opens and the rollover fights through the suppression.
	for i := 0; i < cfg.Packets; i++ {
		if err := send(); err != nil {
			return campRow{}, err
		}
	}
	cut.Activate()
	for polls := 0; o.Stats().Rollovers < 1; polls++ {
		if polls > 8*maxAttempts+40 {
			return campRow{}, fmt.Errorf("rollover never converged: %+v", o.Stats())
		}
		o.Poll() //nolint:errcheck // suppressed exchanges retry on the next poll
	}

	// Phase 2: the cutover blackout eats a bounded run of packets.
	for i := 0; i < cfg.Packets; i++ {
		if err := send(); err != nil {
			return campRow{}, err
		}
	}
	cut.Deactivate()
	for _, w := range history {
		open(w)
	}

	st := o.Stats()
	cs := cut.Stats()
	row.defense = fmt.Sprintf("MaxAttempts=%d", maxAttempts)
	row.abandoned = st.Abandoned
	row.rollovers = st.Rollovers
	row.cost = fmt.Sprintf("suppressed %d, abandoned %d, blackout %d",
		cs.Suppressed, st.Abandoned, cs.BlackoutDrops)
	return row, nil
}

// floodRow prices the failover-blackout replay flood against SAVE
// interval k: the campaign wiretaps all traffic, the primary crashes,
// and the recorded burst is injected exactly in the takeover wake window
// (via the cluster promotion hook). The SLO is absolute — zero replay
// acceptances even then; the k knob prices the wake window's
// false-reject bill (bounded by leap + replication lag).
func floodRow(cfg CampaignsConfig, k uint64) (campRow, error) {
	dir, err := os.MkdirTemp("", "campaign-flood-*")
	if err != nil {
		return campRow{}, err
	}
	defer os.RemoveAll(dir)
	openJ := func(name string) (*store.Lanes, error) {
		return store.OpenLanes(filepath.Join(dir, name), store.LanesCount(1), store.LanesWithoutSync())
	}
	jA, err := openJ("peer")
	if err != nil {
		return campRow{}, err
	}
	defer jA.Close()
	j1, err := openJ("node1")
	if err != nil {
		return campRow{}, err
	}
	defer j1.Close()
	j2, err := openJ("node2")
	if err != nil {
		return campRow{}, err
	}
	defer j2.Close()

	A, err := ipsec.NewGateway(ipsec.GatewayConfig{Journal: jA, K: k, W: 64})
	if err != nil {
		return campRow{}, err
	}
	defer A.Close()
	B1, err := ipsec.NewGateway(ipsec.GatewayConfig{Journal: j1, K: k, W: 64})
	if err != nil {
		return campRow{}, err
	}
	defer B1.Close()

	rng := rand.New(rand.NewSource(cfg.Seed + 400))
	keys := ipsec.KeyMaterial{AuthKey: make([]byte, ipsec.AuthKeySize)}
	rng.Read(keys.AuthKey)
	addrA := netip.AddrFrom4([4]byte{10, 2, 0, 1})
	addrB := netip.AddrFrom4([4]byte{10, 2, 0, 2})
	const ab = uint32(0xC100)
	sel := ipsec.Selector{Src: netip.PrefixFrom(addrA, 32), Dst: netip.PrefixFrom(addrB, 32)}
	if _, err := A.AddOutbound(ab, keys, sel); err != nil {
		return campRow{}, err
	}
	if _, err := B1.AddInbound(ab, keys); err != nil {
		return campRow{}, err
	}

	var (
		row       campRow
		seen      = make(map[string]bool)
		history   [][]byte
		cur       = B1
		buffering bool
		pending   [][]byte
	)
	open := func(w []byte) {
		for tries := 0; ; tries++ {
			_, v, err := cur.Open(w)
			if err != nil {
				return
			}
			if v == core.VerdictHorizon && tries < 10000 {
				time.Sleep(10 * time.Microsecond)
				continue
			}
			if v.Delivered() {
				if seen[string(w)] {
					row.replays++
				} else {
					seen[string(w)] = true
					row.delivered++
				}
			}
			return
		}
	}
	link := &campLink{deliver: func(p []byte) {
		if buffering {
			pending = append(pending, p)
			return
		}
		open(p)
	}}
	gate := wire.NewGateLink(link)
	flood := adversary.NewBlackoutFlood(adversary.BlackoutFloodConfig{MaxBurst: 256})
	if err := flood.Arm(adversary.Hooks{Gate: gate}); err != nil {
		return campRow{}, err
	}

	sb, err := cluster.NewStandby(cluster.Config{
		Source: j1, Journal: j2, K: k,
		// The campaign's hook point: the flood fires inside the takeover
		// wake window, between the epoch fence and the wake itself.
		OnPromote: func(epoch uint64) { flood.OnTakeover(epoch) },
	})
	if err != nil {
		return campRow{}, err
	}
	defer sb.Stop()
	if err := sb.Start(); err != nil {
		return campRow{}, err
	}
	if err := sb.Mirror(B1.Snapshot()); err != nil {
		return campRow{}, err
	}

	payload := make([]byte, 120)
	send := func() error {
		for tries := 0; ; tries++ {
			w, err := A.Seal(addrA, addrB, payload)
			if err == nil {
				row.sent++
				history = append(history, w)
				return gate.Send(w)
			}
			if !errors.Is(err, core.ErrSaveLag) || tries > 10000 {
				return err
			}
			time.Sleep(10 * time.Microsecond)
		}
	}

	// Phase 1: recorded traffic through the primary.
	for i := 0; i < cfg.Packets; i++ {
		if err := send(); err != nil {
			return campRow{}, err
		}
	}

	// Crash; the flood arms and fires inside the promotion wake window.
	flood.Activate()
	B1.ResetAll()
	buffering = true
	gw2, _, err := sb.Takeover()
	if err != nil {
		return campRow{}, err
	}
	cur = gw2
	buffering = false
	for _, p := range pending {
		open(p) // the flood lands as the promoted node comes up
	}
	pending = nil
	flood.Deactivate()

	// Phase 2: fresh traffic pays the wake window's false-reject bill.
	for i := 0; i < cfg.Packets; i++ {
		if err := send(); err != nil {
			return campRow{}, err
		}
	}
	for _, w := range history {
		open(w)
	}

	st := flood.Stats()
	row.defense = fmt.Sprintf("K=%d", k)
	row.cost = fmt.Sprintf("recorded %d, flooded %d", st.Recorded, st.Flooded)
	return row, nil
}
