// Command resetsim runs one simulated sender→receiver flow with configurable
// impairments, reset schedule, and adversary, and prints the outcome
// accounting. It is the interactive companion to the fixed experiment suite
// in cmd/benchtables.
//
// Example: the §3 catastrophe, then the paper's fix:
//
//	resetsim -baseline -msgs 2000 -reset-receiver 1500 -replay
//	resetsim           -msgs 2000 -reset-receiver 1500 -replay
//
// With -rekey-every n the simulation switches from a bare sender→receiver
// flow to a journal-backed gateway pair whose tunnel is rolled over by the
// rekey orchestrator every n delivered packets (make-before-break: install
// inbound, cut outbound, drain, retire). -loss then also applies to the
// rekey exchange's messages (lost messages retry), and -reset-receiver N
// crashes the whole receiver gateway mid-exchange at the first rollover
// after N deliveries:
//
//	resetsim -rekey-every 500 -msgs 2000 -loss 0.05 -reset-receiver 800
//
// With -failover-every n the receiver side is an HA cluster instead: every
// n delivered packets the primary crashes, its standby takes over (the
// epoch-fenced promotion wakes every SA from the replicated counters), and
// the dead node rejoins as the next standby. -sas adds idle inbound SAs
// that every takeover wakes:
//
//	resetsim -failover-every 200 -msgs 800 -loss 0.05 -sas 4
//
// Both gateway modes run on experiments.GatewayPair (-transport=udp
// carries the traffic over real loopback sockets, -metrics serves the
// live counters) and end in its check: the run fails on a replay
// acceptance, a counter below its last snapshot, or a wake window overrun.
//
// With -campaign=<name> the simulation instead runs one of the stealth-DoS
// campaigns from the adversary layer (window_edge, save_storm, rekey_cutover,
// blackout_flood) at its baseline and hardened defense settings and prints
// the bounded-degradation table row pair, and with -diskfault=<name> one of
// the disk-chaos campaigns (fsync_storm, enospc_compact, single_lane_eio):
//
//	resetsim -campaign=window_edge -msgs 600
//	resetsim -diskfault=single_lane_eio
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"antireplay/internal/experiments"
	"antireplay/internal/ike"
	"antireplay/internal/ipsec"
	"antireplay/internal/netsim"
	"antireplay/internal/rekey"
	"antireplay/internal/store"
	wirenet "antireplay/internal/wire"
)

// carrier moves sealed datagrams (and rekey exchange messages) from the
// sender gateway to the receiver in the gateway modes: in process by
// default, or across a real UDP-encapsulated loopback socket pair with
// -transport=udp (per-peer demux by SPI, non-ESP marker for the IKE
// control lane).
type carrier struct {
	ea, eb *wirenet.UDPEndpoint
	la, lb *wirenet.UDPLink
}

const carrierTimeout = 5 * time.Second

func newCarrier(transport string, spis ...uint32) (*carrier, error) {
	switch transport {
	case "", "mem":
		return &carrier{}, nil
	case "udp":
	default:
		return nil, fmt.Errorf("unknown -transport %q (mem or udp)", transport)
	}
	ea, err := wirenet.ListenUDP("", wirenet.UDPConfig{})
	if err != nil {
		return nil, err
	}
	eb, err := wirenet.ListenUDP("", wirenet.UDPConfig{})
	if err != nil {
		ea.Close()
		return nil, err
	}
	la, err := ea.Link(eb.Addr())
	if err != nil {
		ea.Close()
		eb.Close()
		return nil, err
	}
	lb, err := eb.Link(ea.Addr(), spis...)
	if err != nil {
		ea.Close()
		eb.Close()
		return nil, err
	}
	return &carrier{ea: ea, eb: eb, la: la, lb: lb}, nil
}

func (c *carrier) udp() bool { return c.la != nil }

func (c *carrier) close() {
	if c.udp() {
		c.ea.Close()
		c.eb.Close()
	}
}

// deliver carries one sealed datagram to the receiver side and returns
// the bytes the receiver should Open.
func (c *carrier) deliver(w []byte) ([]byte, error) {
	if !c.udp() {
		return w, nil
	}
	if err := c.la.Send(w); err != nil {
		return nil, err
	}
	return c.lb.RecvTimeout(carrierTimeout)
}

// registerSPI routes a new generation's inbound SPI to the receiver link
// (a rekey riding the same wire).
func (c *carrier) registerSPI(spi uint32) {
	if c.udp() {
		c.eb.RegisterSPI(c.lb, spi) //nolint:errcheck // demux falls back to peer address
	}
}

// timeoutConn is an ike.Conn over a link's control lane with a bounded
// Recv, so a deliberately dropped exchange message cannot hang a party.
type timeoutConn struct {
	l *wirenet.UDPLink
	d time.Duration
}

func (c timeoutConn) Send(p []byte) error { return c.l.SendControl(p) }

func (c timeoutConn) Recv() ([]byte, error) { return c.l.RecvControlTimeout(c.d) }

// rekeyExchange runs the one-round-trip rekey over the control lane,
// with fault injection: a "lost" message is simply never sent (request)
// or never processed (response), exactly as the in-process mode models
// it. The responder serves concurrently, as a real peer would.
func (c *carrier) rekeyExchange(ini *ike.RekeyInitiator, rsp *ike.RekeyResponder,
	m1 []byte, reqLost, respLost bool) (ike.ChildKeys, error) {

	srv := make(chan error, 1)
	go func() { srv <- ike.ServeRekey(rsp, timeoutConn{c.lb, carrierTimeout / 8}) }()
	conn := timeoutConn{c.la, carrierTimeout / 8}

	if reqLost {
		<-srv // responder times out on the dropped request
		return ike.ChildKeys{}, errors.New("rekey request lost")
	}
	if err := conn.Send(m1); err != nil {
		<-srv
		return ike.ChildKeys{}, err
	}
	if err := <-srv; err != nil {
		return ike.ChildKeys{}, err
	}
	m2, err := conn.Recv()
	if err != nil {
		return ike.ChildKeys{}, err
	}
	if respLost {
		return ike.ChildKeys{}, errors.New("rekey response lost")
	}
	if err := ini.HandleResponse(m2); err != nil {
		return ike.ChildKeys{}, err
	}
	return ini.ChildKeys(), nil
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "simulation seed")
		kp       = flag.Uint64("kp", 25, "sender SAVE interval Kp")
		kq       = flag.Uint64("kq", 25, "receiver SAVE interval Kq")
		w        = flag.Int("w", 64, "anti-replay window width")
		msgs     = flag.Uint64("msgs", 10000, "messages to send")
		baseline = flag.Bool("baseline", false, "use the §2 baseline (no SAVE/FETCH)")
		loss     = flag.Float64("loss", 0, "link loss probability")
		reorder  = flag.Float64("reorder", 0, "link reorder probability")
		reorderD = flag.Duration("reorder-delay", 200*time.Microsecond, "max reorder hold-back")
		dup      = flag.Float64("dup", 0, "link duplication probability")
		rstSnd   = flag.Uint64("reset-sender", 0, "reset the sender after this many sends (0 = never)")
		rstRcv   = flag.Uint64("reset-receiver", 0, "reset the receiver after observing this many messages (0 = never)")
		outage   = flag.Duration("outage", time.Millisecond, "reset outage duration")
		replay   = flag.Bool("replay", false, "adversary replays the full history after the receiver wake-up")
		leap     = flag.Float64("leap", 0, "leap factor override (0 = paper's 2)")
		rekeyN   = flag.Uint64("rekey-every", 0, "roll the SA over every n delivered packets on a gateway pair (0 = plain flow mode)")
		failN    = flag.Uint64("failover-every", 0, "crash the receiver gateway and promote its cluster standby every n delivered packets (0 = no cluster)")
		lanesN   = flag.Int("lanes", 1, "journal commit lanes per node in the gateway modes")
		sasN     = flag.Int("sas", 1, "total inbound SAs on the cluster node in failover mode (extras spread across lanes and wake on every takeover)")
		trans    = flag.String("transport", "mem", "gateway-mode wire transport: mem (in-process) or udp (real UDP-encapsulated loopback sockets)")
		campaign = flag.String("campaign", "", "run one stealth-DoS campaign (baseline + hardened rows) and exit: window_edge, save_storm, rekey_cutover, or blackout_flood")
		diskflt  = flag.String("diskfault", "", "run one disk-chaos campaign and exit: fsync_storm, enospc_compact, or single_lane_eio")
		metrics  = flag.String("metrics", "", "serve /metrics, /healthz, /saz, /events, and pprof on this address in the gateway modes (e.g. :9100; :0 picks a free port)")
	)
	flag.Parse()

	fail := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "resetsim: %v\n", err)
			os.Exit(1)
		}
	}
	// -campaign and -diskfault run one table and exit. -msgs retargets its
	// phase length only when given explicitly; the flow-mode default of
	// 10000 would make the suite crawl.
	packets := func(n int) int {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "msgs" {
				n = int(*msgs)
			}
		})
		return n
	}
	if *campaign != "" || *diskflt != "" {
		var tbl *experiments.Table
		var err error
		if *campaign != "" {
			cfg := experiments.DefaultCampaignsConfig()
			cfg.Seed, cfg.Packets = *seed, packets(cfg.Packets)
			tbl, err = experiments.CampaignsOnly(cfg, *campaign)
		} else {
			cfg := experiments.DefaultDiskfaultConfig()
			cfg.Seed, cfg.Packets = *seed, packets(cfg.Packets)
			tbl, err = experiments.DiskfaultOnly(cfg, *diskflt)
		}
		fail(err)
		fail(tbl.Render(os.Stdout))
		return
	}
	if *rekeyN > 0 && *failN > 0 {
		fmt.Fprintln(os.Stderr, "resetsim: -rekey-every and -failover-every are separate modes")
		os.Exit(2)
	}
	if *trans != "mem" && *trans != "udp" {
		fmt.Fprintf(os.Stderr, "resetsim: unknown -transport %q (mem or udp)\n", *trans)
		os.Exit(2)
	}
	if *trans == "udp" && *rekeyN == 0 && *failN == 0 {
		fmt.Fprintln(os.Stderr, "resetsim: -transport=udp applies to the gateway modes (-rekey-every / -failover-every)")
		os.Exit(2)
	}
	if *metrics != "" && *rekeyN == 0 && *failN == 0 {
		fmt.Fprintln(os.Stderr, "resetsim: -metrics applies to the gateway modes (-rekey-every / -failover-every)")
		os.Exit(2)
	}
	var tele *simTelemetry
	if *metrics != "" {
		var err error
		tele, err = newSimTelemetry(*metrics)
		fail(err)
		defer tele.close()
		fmt.Printf("metrics: listening on %s\n", tele.addr())
	}
	if *failN > 0 || *rekeyN > 0 {
		var err error
		if *failN > 0 {
			err = runFailoverSim(*seed, *msgs, *failN, *loss, *kq, *w, *lanesN, *sasN, *trans, tele)
		} else {
			err = runRekeySim(*seed, *msgs, *rekeyN, *rstRcv, *loss, *kq, *w, *lanesN, *trans, tele)
		}
		fail(err)
		tele.dumpEvents()
		return
	}

	cfg := experiments.DefaultFlowConfig(*seed)
	cfg.Kp, cfg.Kq, cfg.W = *kp, *kq, *w
	cfg.Baseline = *baseline
	cfg.LeapFactor = *leap
	cfg.Link = netsim.LinkConfig{
		Delay:        cfg.Link.Delay,
		LossProb:     *loss,
		DupProb:      *dup,
		ReorderProb:  *reorder,
		ReorderDelay: *reorderD,
	}
	if *reorder == 0 {
		cfg.Link.ReorderDelay = 0
	}

	f, err := experiments.NewFlow(cfg)
	fail(err)

	if *rstSnd > 0 {
		f.AtSendCount(*rstSnd, func() {
			fmt.Printf("t=%v  sender reset (wake in %v)\n", f.Engine.Now(), *outage)
			f.Sender.Reset()
			f.Engine.After(*outage, f.Sender.Wake)
		})
	}
	if *rstRcv > 0 {
		f.AtObserveCount(*rstRcv, func() {
			fmt.Printf("t=%v  receiver reset (wake in %v)\n", f.Engine.Now(), *outage)
			if *replay {
				// The replay attack is strongest while the sender is quiet
				// (fresh traffic would slam the window shut ahead of the
				// replays); give the adversary its §3 best case.
				f.StopTraffic()
				fmt.Printf("t=%v  sender goes quiet (adversary's best case)\n", f.Engine.Now())
			}
			f.Receiver.Reset()
			f.Engine.After(*outage, func() {
				f.Receiver.Wake()
				if *replay {
					at := f.Engine.Now() + cfg.SaveDelay*2
					n := f.Replayer.ReplayAllAt(at, cfg.SendInterval)
					fmt.Printf("t=%v  adversary schedules %d replays\n", f.Engine.Now(), n)
				}
			})
		})
	}

	f.AtSendCount(*msgs, f.StopTraffic)
	f.StartTraffic(time.Hour)
	f.Run(time.Duration(*msgs)*cfg.SendInterval*4 + *outage*4 + time.Second)

	fmt.Printf("\nsent=%d skipped_while_down=%d last_seq=%d\n", f.Sent(), f.SkippedSends(), f.LastSent())
	fmt.Printf("link: %+v\n", f.Link.Stats())
	fmt.Printf("outcome: %v\n", f.Matrix)
	fmt.Printf("duplicate deliveries (MUST be 0): %d\n", f.DupDeliveries())
	fmt.Printf("sender:   %+v\n", f.Sender.Stats())
	fmt.Printf("receiver: %+v (edge %d)\n", f.Receiver.Stats(), f.Receiver.Edge())

	if f.DupDeliveries() > 0 && !*baseline {
		fmt.Fprintln(os.Stderr, "resetsim: SAFETY VIOLATION under the resilient protocol")
		os.Exit(1)
	}
}

// runFailoverSim is the -failover-every mode: the receiver side is an HA
// cluster — a primary gateway whose journal replicates synchronously to a
// standby — and every n delivered packets the primary "crashes": its
// volatile state is lost, the standby performs the epoch-fenced takeover
// (waking every SA from the replicated counters), and the dead node reboots
// into the next standby, so successive failovers alternate nodes and
// exercise failback. The sender keeps transmitting throughout; the run
// reports per-failover replication lag and the post-takeover horizon, then
// replays the entire history and fails on the scenario check: a replay
// acceptance, a counter regression, or a wake window overrun.
func runFailoverSim(seed int64, msgs, failEvery uint64, loss float64, k uint64, w int, lanes, sas int, transport string, tele *simTelemetry) error {
	rng := rand.New(rand.NewSource(seed))
	res, err := ike.Establish(ike.Config{PSK: []byte("resetsim"), ID: "gw-a",
		Rand: rand.New(rand.NewSource(rng.Int63()))},
		ike.Config{PSK: []byte("resetsim"), ID: "gw-b",
			Rand: rand.New(rand.NewSource(rng.Int63()))})
	if err != nil {
		return err
	}
	keys := res.Keys
	car, err := newCarrier(transport, keys.SPIInitToResp)
	if err != nil {
		return err
	}
	defer car.close()
	p, err := newSimPair("failover", seed, k, w, lanes, loss, rng, car, tele)
	if err != nil {
		return err
	}
	defer p.Close()
	if _, err := p.AddTunnel(keys.SPIInitToResp, 0, keys.InitToResp, ipsec.KeyMaterial{}); err != nil {
		return err
	}
	// -sas extras: additional inbound SAs on the cluster node. They carry no
	// traffic here, but they spread counters across the lanes, replicate,
	// and are woken (FETCH + leap + SAVE, each) by every takeover.
	for i := 1; i < sas; i++ {
		if _, err := p.Receiver().AddInbound(uint32(0x00C0_0000+i), p.Keys()); err != nil {
			return err
		}
	}
	if err := p.StartStandby(); err != nil {
		return err
	}
	tele.setRoles(p.Sender(), p.Receiver(), p.Standby())

	rxKey := ipsec.InboundKey(keys.SPIInitToResp)
	sinceFailover := uint64(0)
	for i := uint64(0); i < msgs; i++ {
		ok, err := p.Send(0, []byte("resetsim payload"))
		if err != nil {
			return err
		}
		if ok {
			sinceFailover++
		}
		if sinceFailover < failEvery {
			continue
		}
		sinceFailover = 0
		lagRecords := p.Standby().Stats().LagRecords
		lagValues := p.Standby().LagValues()
		edge, _, _ := p.Receiver().Journal().Cell(rxKey).Fetch()
		p.Crash() // volatile counters lost, journal survives
		epoch, err := p.Takeover()
		if err != nil {
			return err
		}
		wakeEdge, _, _ := p.Receiver().Journal().Cell(rxKey).Fetch()
		fmt.Printf("delivered=%d  failover %d: epoch %d, lag %d records / %d values, rx horizon %d -> %d\n",
			p.Delivered.Load(), p.Takeovers.Load(), epoch, lagRecords, lagValues, edge, wakeEdge)
		// The dead node reboots into the next standby (failback roles).
		if err := p.Rejoin(); err != nil {
			return err
		}
		tele.setRoles(nil, p.Receiver(), p.Standby())
	}

	// Adversary: replay the entire recorded history at the final primary
	// (over the same transport the live traffic used).
	if err := p.ReplayAll(car.deliver); err != nil {
		return err
	}
	fmt.Printf("\nsent=%d delivered=%d lost=%d sacrificed=%d failovers=%d\n",
		msgs, p.Delivered.Load(), p.Lost.Load(), p.Sacrificed.Load(), p.Takeovers.Load())
	fmt.Printf("replayed full history: %d re-accepted (MUST be 0)\n", p.Replays())
	return p.Check()
}

// newSimPair builds a gateway mode's pair: every node's medium reports
// lane faults to the event ring, and the path draws loss before the
// carrier. The telemetry scrape reads the pair's ledger.
func newSimPair(mode string, seed int64, k uint64, w, lanes int, loss float64, rng *rand.Rand,
	car *carrier, tele *simTelemetry) (*experiments.GatewayPair, error) {
	p, err := experiments.NewGatewayPair(experiments.PairSetup{
		Scenario: "resetsim " + mode, Seed: seed, K: k, W: w, Lanes: lanes,
		Options:     []store.LanesOption{store.LanesOnPoison(ipsec.LaneFaultRecorder(tele.events()))},
		OnLifecycle: tele.onLifecycle(),
		OnPromote:   tele.onPromote(),
		Path: func(wire []byte) ([]byte, error) {
			if rng.Float64() < loss {
				return nil, nil
			}
			return car.deliver(wire)
		},
	})
	if err != nil {
		return nil, err
	}
	if car.udp() {
		fmt.Printf("transport: UDP loopback %v <-> %v\n", car.ea.Addr(), car.eb.Addr())
		tele.registerLink(car.la)
	}
	tele.setLedger(p.Ledger)
	return p, nil
}

// runRekeySim is the -rekey-every mode: a journal-backed gateway pair whose
// single tunnel the rekey orchestrator rolls over every rekeyEvery
// delivered packets. loss applies both to data packets and to the rekey
// exchange's messages; resetAt > 0 crashes the receiver gateway
// mid-exchange at the first rollover after that many deliveries. The run
// ends in the scenario check, like the failover mode.
func runRekeySim(seed int64, msgs, rekeyEvery, resetAt uint64, loss float64, k uint64, w int, lanes int, transport string, tele *simTelemetry) error {
	rng := rand.New(rand.NewSource(seed))
	ikeCfg := func(id string) ike.Config {
		return ike.Config{PSK: []byte("resetsim"), ID: id,
			Rand: rand.New(rand.NewSource(rng.Int63()))}
	}
	res, err := ike.Establish(ikeCfg("gw-a"), ikeCfg("gw-b"))
	if err != nil {
		return err
	}
	keys := res.Keys
	car, err := newCarrier(transport, keys.SPIInitToResp)
	if err != nil {
		return err
	}
	defer car.close()
	p, err := newSimPair("rekey", seed, k, w, lanes, loss, rng, car, tele)
	if err != nil {
		return err
	}
	defer p.Close()
	if _, err := p.AddTunnel(keys.SPIInitToResp, keys.SPIRespToInit, keys.InitToResp, keys.RespToInit); err != nil {
		return err
	}
	tele.setRoles(p.Sender(), p.Receiver(), nil)

	var (
		resetsInjected int
		armReset       bool
		observer       func(rekey.Event)
	)
	if tele != nil {
		observer = rekey.EventObserver(tele.events())
	}
	o, err := rekey.New(rekey.Config{
		A: p.Sender(), B: p.Receiver(), Observer: observer,
		Exchange: func(oldAB, oldBA uint32) (ike.ChildKeys, error) {
			ini, err := ike.NewRekeyInitiator(ikeCfg("gw-a"), oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			rsp, err := ike.NewRekeyResponder(ikeCfg("gw-b"), oldAB, oldBA)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			m1, err := ini.Request()
			if err != nil {
				return ike.ChildKeys{}, err
			}
			if armReset {
				armReset = false
				resetsInjected++
				fmt.Printf("delivered=%d  receiver gateway reset mid-exchange\n", p.Delivered.Load())
				p.Crash()
				p.Wake() //nolint:errcheck // recovery failures surface as exchange errors below
			}
			reqLost := rng.Float64() < loss
			respLost := rng.Float64() < loss
			if car.udp() {
				// The exchange rides the socket's control lane (non-ESP
				// marker), served concurrently by the responder side.
				return car.rekeyExchange(ini, rsp, m1, reqLost, respLost)
			}
			if reqLost {
				return ike.ChildKeys{}, errors.New("rekey request lost")
			}
			m2, err := rsp.HandleRequest(m1)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			if respLost {
				return ike.ChildKeys{}, errors.New("rekey response lost")
			}
			if err := ini.HandleResponse(m2); err != nil {
				return ike.ChildKeys{}, err
			}
			return ini.ChildKeys(), nil
		},
	})
	if err != nil {
		return err
	}
	tun, err := o.Track(keys.SPIInitToResp, keys.SPIRespToInit)
	if err != nil {
		return err
	}

	resetArmed := resetAt > 0
	sinceRekey := uint64(0)
	for i := uint64(0); i < msgs; i++ {
		ok, err := p.Send(0, []byte("resetsim payload"))
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		sinceRekey++
		if resetArmed && p.Delivered.Load() >= resetAt {
			resetArmed, armReset = false, true
		}
		if sinceRekey >= rekeyEvery {
			sinceRekey = 0
			for attempt := 1; ; attempt++ {
				err := o.Rollover(tun)
				if err == nil {
					ab, ba := tun.SPIs()
					car.registerSPI(ab) // new generation rides the same wire
					fmt.Printf("delivered=%d  rolled over to SPIs %#x/%#x (attempt %d)\n",
						p.Delivered.Load(), ab, ba, attempt)
					break
				}
				if attempt >= 64 {
					return fmt.Errorf("rollover never converged: %w", err)
				}
			}
			if err := o.Poll(); err != nil { // Grace 0: retire the drained generation
				return err
			}
		}
	}

	// Adversary: replay the entire recorded history (over the same
	// transport the live traffic used).
	if err := p.ReplayAll(car.deliver); err != nil {
		return err
	}
	st := o.Stats()
	fmt.Printf("\nsent=%d delivered=%d lost=%d sacrificed=%d\n",
		msgs, p.Delivered.Load(), p.Lost.Load(), p.Sacrificed.Load())
	fmt.Printf("rollovers=%d exchange_failures=%d retired=%d resets_injected=%d\n",
		st.Rollovers, st.ExchangeFailures, st.Retired, resetsInjected)
	fmt.Printf("journal keys: A=%d B=%d (retired generations tombstoned)\n",
		p.Sender().Journal().Keys(), p.Receiver().Journal().Keys())
	fmt.Printf("replayed full history: %d re-accepted (MUST be 0)\n", p.Replays())
	return p.Check()
}
