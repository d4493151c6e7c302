package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"antireplay/internal/adversary"
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
			if g := r.row.goodput(); g < r.floor {
				return nil, fmt.Errorf("experiments: campaign %s (%s): goodput %.3f below floor %.2f",
					spec.campaign, r.row.defense, g, r.floor)
			}
			t.AddRow(spec.campaign, r.row.defense,
				fmt.Sprint(r.row.sent), fmt.Sprint(r.row.delivered),
				fmt.Sprintf("%.1f%%", 100*r.row.goodput()),
				fmt.Sprintf("%.0f%%", 100*r.floor),
				r.row.cost, fmt.Sprint(r.row.replays))
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

// gatedTunnel builds the victim tunnel.Pair of the window_edge and
// save_storm rows. Its synchronous in-memory stores keep those rows
// seed-exact. The p->q direction crosses a GateLink, and the shared Ledger
// books the wiretap history and q's deliveries (keyed by payload).
func gatedTunnel(cfg CampaignsConfig, k uint64, w int) (a, b *tunnel.Peer, gate *wire.GateLink, l *Ledger, err error) {
	l = newLedger()
	link := &campLink{}
	gate = wire.NewGateLink(link)
	a, b, err = tunnel.Pair(
		tunnel.Config{Name: "victim-p", K: k},
		tunnel.Config{Name: "victim-q", K: k, W: w, OnData: func(p []byte) { l.settle(p, true, true) }},
		campIKE(cfg.Seed+101, "p"), campIKE(cfg.Seed+102, "q"),
		func(wireBytes []byte, deliver func([]byte)) {
			link.deliver = deliver
			l.record(append([]byte(nil), wireBytes...))
			gate.Send(wireBytes) //nolint:errcheck // drops are the adversary's verdict
		}, nil)
	return a, b, gate, l, err
}

// gatedPath makes a GateLink the gateway pair's path: everything the gate
// lets through, now or on a later release, opens at the current receiver
// through deliver.
func gatedPath(deliver func(p []byte)) (*wire.GateLink, func([]byte) ([]byte, error)) {
	gate := wire.NewGateLink(&campLink{deliver: deliver})
	return gate, func(w []byte) ([]byte, error) { return nil, gate.Send(w) }
}

// snipeRow prices the window-edge snipe against window width w: every
// 16th packet is held back 96 packets and re-released, plus an
// edge-adjacent duplicate injection every 10th. A window wider than the
// hold depth delivers the hostages late; a narrower one silently loses
// them (with ESN the deep-late packets fail ICV under the wrong inferred
// epoch — either way, goodput the victim never sees).
func snipeRow(cfg CampaignsConfig, w int) (campRow, error) {
	a, b, gate, l, err := gatedTunnel(cfg, 25, w)
	if err != nil {
		return campRow{}, err
	}
	snipe := adversary.NewWindowEdgeSnipe(adversary.SnipeConfig{
		HoldEvery: 16, HoldDepth: 96, DupEvery: 10,
	})
	if err := snipe.Arm(adversary.Hooks{Gate: gate}); err != nil {
		return campRow{}, err
	}
	snipe.Activate()
	n := cfg.Packets
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("pkt-%06d", i))); err != nil {
			return campRow{}, err
		}
	}
	snipe.Deactivate()
	l.replay(func(w []byte) { b.Receive(w) }) //nolint:errcheck // rejections are the expected outcome
	st := snipe.Stats()
	return campRow{
		defense:   fmt.Sprintf("W=%d", w),
		sent:      n,
		delivered: int(l.Delivered.Load()),
		cost:      fmt.Sprintf("held %d, dups %d", st.Held, st.DupsInjected),
		replays:   l.replays,
	}, l.check(fmt.Sprintf("window_edge W=%d", w), cfg.Seed)
}

// stormRow prices the SAVE-storm against SAVE interval k: the storm
// drops the strike zone below every SAVE boundary (bounded cost,
// BurstLen per K), then the receiver is crashed at a Parked instant.
// The wake sacrifice is bounded by the leap (2K), so the adaptive-K
// defense — a smaller K — shrinks the reset bill the storm set up.
func stormRow(cfg CampaignsConfig, k uint64) (campRow, error) {
	a, b, gate, l, err := gatedTunnel(cfg, k, 64)
	if err != nil {
		return campRow{}, err
	}
	storm, err := adversary.NewSaveStorm(adversary.StormConfig{K: k})
	if err != nil {
		return campRow{}, err
	}
	if err := storm.Arm(adversary.Hooks{Gate: gate}); err != nil {
		return campRow{}, err
	}
	storm.Activate()
	sent := 0
	send := func() error {
		sent++
		return a.Send([]byte(fmt.Sprintf("s-%06d", sent)))
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
	b.Reset()
	if err := b.Wake(); err != nil {
		return campRow{}, err
	}
	for i := 0; i < 2*cfg.Packets; i++ {
		if err := send(); err != nil {
			return campRow{}, err
		}
	}
	storm.Deactivate()
	l.replay(func(w []byte) { b.Receive(w) }) //nolint:errcheck // rejections are the expected outcome
	st := storm.Stats()
	return campRow{
		defense:   fmt.Sprintf("K=%d", k),
		sent:      sent,
		delivered: int(l.Delivered.Load()),
		cost:      fmt.Sprintf("dropped %d, parked reset", st.Dropped),
		replays:   l.replays,
	}, l.check(fmt.Sprintf("save_storm K=%d", k), cfg.Seed)
}

// rekeyCutRow prices exchange suppression against the retry budget: the
// campaign eats the first 6 exchange attempts and fires a 48-packet
// blackout at the cutover it cannot ultimately prevent. A shallow budget
// (MaxAttempts=2) abandons the trigger repeatedly before converging; a
// deep one rides the suppression out in a single trigger.
func rekeyCutRow(cfg CampaignsConfig, maxAttempts int) (campRow, error) {
	var p *GatewayPair
	gate, path := gatedPath(func(w []byte) { p.Open(w) }) //nolint:errcheck // rejections are the campaign's effect
	p, err := NewGatewayPair(PairSetup{
		Scenario: fmt.Sprintf("rekey_cutover MaxAttempts=%d", maxAttempts), Seed: cfg.Seed,
		K: 25, W: 64, Options: []store.LanesOption{store.LanesWithoutSync()},
		// The soft lifetime trips midway through phase 1.
		Lifetime: ipsec.Lifetime{SoftBytes: uint64(cfg.Packets) * 300 / 2},
		Path:     path,
	})
	if err != nil {
		return campRow{}, err
	}
	defer p.Close()
	cut := adversary.NewRekeyCut(adversary.RekeyCutConfig{
		SuppressExchanges: 6, BlackoutPackets: 48,
	})
	if err := cut.Arm(adversary.Hooks{Gate: gate}); err != nil {
		return campRow{}, err
	}

	res, err := ike.Establish(campIKE(cfg.Seed+201, "init"), campIKE(cfg.Seed+202, "resp"))
	if err != nil {
		return campRow{}, err
	}
	kk := res.Keys
	// The reverse direction exists so the orchestrator can track the pair.
	if _, err := p.AddTunnel(kk.SPIInitToResp, kk.SPIRespToInit, kk.InitToResp, kk.RespToInit); err != nil {
		return campRow{}, err
	}

	var vt time.Duration
	exchangeSeed := cfg.Seed + 300
	o, err := rekey.New(rekey.Config{
		A: p.Sender(), B: p.Receiver(),
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
			res, err := ike.RekeyChild(campIKE(exchangeSeed, "gw-a"), campIKE(exchangeSeed+1000, "gw-b"), oldAB, oldBA)
			return res.Keys, err
		},
	})
	if err != nil {
		return campRow{}, err
	}
	if _, err := o.Track(kk.SPIInitToResp, kk.SPIRespToInit); err != nil {
		return campRow{}, err
	}

	payload := make([]byte, 280)
	sent := 0
	send := func() error {
		sent++
		_, err := p.Send(0, payload)
		return err
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
	if err := p.ReplayAll(nil); err != nil {
		return campRow{}, err
	}

	st := o.Stats()
	cs := cut.Stats()
	return campRow{
		defense:   fmt.Sprintf("MaxAttempts=%d", maxAttempts),
		sent:      sent,
		delivered: int(p.Delivered.Load()),
		cost: fmt.Sprintf("suppressed %d, abandoned %d, blackout %d",
			cs.Suppressed, st.Abandoned, cs.BlackoutDrops),
		replays:   p.replays,
		abandoned: st.Abandoned,
		rollovers: st.Rollovers,
	}, p.Check()
}

// floodRow prices the failover-blackout replay flood against SAVE
// interval k: the campaign wiretaps all traffic, the primary crashes,
// and the recorded burst is injected exactly in the takeover wake window
// (via the cluster promotion hook). The SLO is absolute — zero replay
// acceptances even then; the k knob prices the wake window's
// false-reject bill (bounded by leap + replication lag).
func floodRow(cfg CampaignsConfig, k uint64) (campRow, error) {
	var (
		p         *GatewayPair
		buffering bool
		pending   [][]byte
	)
	gate, path := gatedPath(func(w []byte) {
		if buffering {
			pending = append(pending, w)
			return
		}
		p.Open(w) //nolint:errcheck // rejections are the campaign's effect
	})
	flood := adversary.NewBlackoutFlood(adversary.BlackoutFloodConfig{MaxBurst: 256})
	if err := flood.Arm(adversary.Hooks{Gate: gate}); err != nil {
		return campRow{}, err
	}
	p, err := NewGatewayPair(PairSetup{
		Scenario: fmt.Sprintf("blackout_flood K=%d", k), Seed: cfg.Seed,
		K: k, W: 64, Options: []store.LanesOption{store.LanesWithoutSync()},
		// The campaign's hook point: the flood fires inside the takeover
		// wake window, between the epoch fence and the wake itself.
		OnPromote: func(epoch uint64) { flood.OnTakeover(epoch) },
		Path:      path,
	})
	if err != nil {
		return campRow{}, err
	}
	defer p.Close()
	if _, err := p.AddTunnel(0xC100, 0, ipsec.KeyMaterial{}, ipsec.KeyMaterial{}); err != nil {
		return campRow{}, err
	}
	if err := p.StartStandby(); err != nil {
		return campRow{}, err
	}

	payload := make([]byte, 120)
	sent := 0
	phase := func() error {
		for i := 0; i < cfg.Packets; i++ {
			sent++
			if _, err := p.Send(0, payload); err != nil {
				return err
			}
		}
		return nil
	}

	// Phase 1: recorded traffic through the primary.
	if err := phase(); err != nil {
		return campRow{}, err
	}

	// Crash; the flood arms and fires inside the promotion wake window,
	// and lands as the promoted node comes up.
	flood.Activate()
	p.Crash()
	buffering = true
	if _, err := p.Takeover(); err != nil {
		return campRow{}, err
	}
	buffering = false
	for _, w := range pending {
		p.Open(w) //nolint:errcheck // rejections are the campaign's effect
	}
	flood.Deactivate()

	// Phase 2: fresh traffic pays the wake window's false-reject bill.
	if err := phase(); err != nil {
		return campRow{}, err
	}
	if err := p.ReplayAll(nil); err != nil {
		return campRow{}, err
	}

	st := flood.Stats()
	return campRow{
		defense:   fmt.Sprintf("K=%d", k),
		sent:      sent,
		delivered: int(p.Delivered.Load()),
		cost:      fmt.Sprintf("recorded %d, flooded %d", st.Recorded, st.Flooded),
		replays:   p.replays,
	}, p.Check()
}
