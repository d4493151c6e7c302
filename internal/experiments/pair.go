package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"antireplay/internal/cluster"
	"antireplay/internal/core"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
)

// The one retry discipline of every gateway-backed scenario: a seal that
// meets core.ErrSaveLag and an open that meets core.VerdictHorizon on a
// healthy lane wait retryPause and try again, at most retryBudget times.
const (
	retryBudget = 100000
	retryPause  = 10 * time.Microsecond
)

// Ledger is one scenario's exactly-once accounting: the full wiretap
// history, the fate of every datagram the receiver has seen, and the
// counts derived from them. The counts are atomics, so a telemetry
// scrape on another goroutine reads them mid-run; the history and the
// fates belong to the scenario's goroutine.
type Ledger struct {
	Delivered      atomic.Uint64 // first deliveries
	Sacrificed     atomic.Uint64 // fresh datagrams the receiver discarded (false rejects)
	Lost           atomic.Uint64 // datagrams the path kept from the receiver, or that met it down
	HorizonStalls  atomic.Uint64 // opens refused at the durable horizon (a retry, or a quarantined lane's stall)
	SaveLagRetries atomic.Uint64 // seals retried on core.ErrSaveLag
	Takeovers      atomic.Uint64 // standby promotions

	history [][]byte
	fate    map[string]bool // datagram -> delivered; present once the receiver saw it
	replays int
}

func newLedger() *Ledger { return &Ledger{fate: make(map[string]bool)} }

// record appends one datagram to the wiretap history.
func (l *Ledger) record(w []byte) { l.history = append(l.history, w) }

// settle books one receiver outcome for key and reports whether it was
// key's first delivery. A second delivery is a replay acceptance; a fresh
// datagram discarded on its first sight is a false reject.
func (l *Ledger) settle(key []byte, delivered, fresh bool) bool {
	was, seen := l.fate[string(key)]
	switch {
	case delivered && was:
		l.replays++
		return false
	case delivered:
		l.fate[string(key)] = true
		l.Delivered.Add(1)
		return true
	case !seen:
		l.fate[string(key)] = false
		if fresh {
			l.Sacrificed.Add(1)
		}
	}
	return false
}

// replay re-injects the full history through inject, in order.
func (l *Ledger) replay(inject func(w []byte)) {
	for _, w := range l.history {
		inject(w)
	}
}

// Replays returns the replay acceptances booked so far.
func (l *Ledger) Replays() int { return l.replays }

// check fails on any replay acceptance, naming scenario and seed.
func (l *Ledger) check(scenario string, seed int64) error {
	return scenarioError(scenario, seed, l.problems(nil))
}

func (l *Ledger) problems(ps []string) []string {
	if l.replays > 0 {
		ps = append(ps, fmt.Sprintf("%d replay acceptances", l.replays))
	}
	return ps
}

func scenarioError(scenario string, seed int64, problems []string) error {
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("scenario %s (seed %d): %s", scenario, seed, strings.Join(problems, "; "))
}

// PairSetup describes one gateway pair.
type PairSetup struct {
	// Scenario names the run in Check's errors; Seed draws the key
	// material and is printed next to it.
	Scenario string
	Seed     int64
	// K, W, Lanes and Lifetime configure every gateway and medium (Lanes
	// <= 1 means one commit lane).
	K        uint64
	W        int
	Lanes    int
	Lifetime ipsec.Lifetime
	// Options apply to every node's medium; ReceiverOptions only to the
	// first receiver's (a fault injector, a poison hook).
	Options         []store.LanesOption
	ReceiverOptions []store.LanesOption
	// OnLifecycle and OnPromote feed the receiver nodes' and standbys'
	// ipsec/cluster hooks.
	OnLifecycle func(kind string, sas int)
	OnPromote   func(epoch uint64)
	// Path carries each sealed datagram to the receiver: it returns the
	// bytes to open, or nil when it keeps them (a loss draw, or a gate
	// that hands them on later through Open). Nil is the identity.
	Path func([]byte) ([]byte, error)
}

// GatewayPair is the one gateway-pair fixture behind every gateway-backed
// scenario: a sender gateway facing a receiver gateway, each on its own
// store.Lanes under one temp dir, with the shared Ledger, failover roles
// (crash, takeover, rejoin) and the invariant checker. The receiver role
// follows every takeover.
type GatewayPair struct {
	*Ledger
	setup PairSetup
	dir   string
	rng   *rand.Rand

	sender, receiver *ipsec.Gateway
	deposed          *ipsec.Gateway // the receiver the last takeover replaced
	standby          *cluster.Standby
	node             map[*store.Lanes]string
	tunnels          [][2]netip.Addr // src, dst per tunnel

	media     []*store.Lanes
	gateways  []*ipsec.Gateway
	standbys  []*cluster.Standby
	floors    map[string]uint64 // "in"/"out" + SPI -> last Committed/Seq seen
	crashEdge map[uint32]uint64 // receiver edges at the pending reset
	crashLag  uint64            // standby lag_values at the pending reset
	windows   []wakeWindow
	faults    []string
}

// wakeWindow is one reset's false-reject allowance: bound is the sum over
// SAs of (wake edge - crash edge), lag the standby's lag_values at the
// crash, and from the Sacrificed count when it opened. Rejects up to the
// next window are charged to it.
type wakeWindow struct {
	event      string
	bound, lag uint64
	from       uint64
}

// NewGatewayPair opens the sender and receiver nodes.
func NewGatewayPair(s PairSetup) (*GatewayPair, error) {
	dir, err := os.MkdirTemp("", "pair-*")
	if err != nil {
		return nil, err
	}
	p := &GatewayPair{
		Ledger: newLedger(), setup: s, dir: dir,
		rng:    rand.New(rand.NewSource(s.Seed)),
		node:   make(map[*store.Lanes]string),
		floors: make(map[string]uint64),
	}
	if p.sender, err = p.openNode("sender", nil, nil); err != nil {
		p.Close()
		return nil, err
	}
	if p.receiver, err = p.openNode("node1", s.ReceiverOptions, s.OnLifecycle); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func (p *GatewayPair) openMedium(name string, extra []store.LanesOption) (*store.Lanes, error) {
	opts := append([]store.LanesOption{store.LanesCount(max(p.setup.Lanes, 1))}, p.setup.Options...)
	m, err := store.OpenLanes(filepath.Join(p.dir, name), append(opts, extra...)...)
	if err != nil {
		return nil, err
	}
	p.media = append(p.media, m)
	p.node[m] = name
	return m, nil
}

func (p *GatewayPair) openNode(name string, extra []store.LanesOption, life func(string, int)) (*ipsec.Gateway, error) {
	m, err := p.openMedium(name, extra)
	if err != nil {
		return nil, err
	}
	g, err := ipsec.NewGateway(ipsec.GatewayConfig{Journal: m, K: p.setup.K, W: p.setup.W,
		Lifetime: p.setup.Lifetime, OnLifecycle: life})
	if err != nil {
		return nil, err
	}
	p.gateways = append(p.gateways, g)
	return g, nil
}

// Close stops every standby and closes every gateway and medium the
// fixture opened, then removes its directory.
func (p *GatewayPair) Close() {
	for _, s := range p.standbys {
		s.Stop()
	}
	for _, g := range p.gateways {
		g.Close()
	}
	for _, m := range p.media {
		m.Close()
	}
	os.RemoveAll(p.dir)
}

// Sender, Receiver, Deposed and Standby return the current role holders.
func (p *GatewayPair) Sender() *ipsec.Gateway    { return p.sender }
func (p *GatewayPair) Receiver() *ipsec.Gateway  { return p.receiver }
func (p *GatewayPair) Deposed() *ipsec.Gateway   { return p.deposed }
func (p *GatewayPair) Standby() *cluster.Standby { return p.standby }

// Keys draws one SA's key material from the seed.
func (p *GatewayPair) Keys() ipsec.KeyMaterial {
	k := ipsec.KeyMaterial{AuthKey: make([]byte, ipsec.AuthKeySize)}
	p.rng.Read(k.AuthKey)
	return k
}

// AddTunnel installs tunnel i (the returned index): the ab direction
// sender -> receiver, and the ba direction back when ba != 0. Zero key
// material is drawn from the seed.
func (p *GatewayPair) AddTunnel(ab, ba uint32, kAB, kBA ipsec.KeyMaterial) (int, error) {
	i := len(p.tunnels)
	src := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
	dst := netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
	sel := func(a, b netip.Addr) ipsec.Selector {
		return ipsec.Selector{Src: netip.PrefixFrom(a, 32), Dst: netip.PrefixFrom(b, 32)}
	}
	if kAB.AuthKey == nil {
		kAB = p.Keys()
	}
	if _, err := p.sender.AddOutbound(ab, kAB, sel(src, dst)); err != nil {
		return 0, err
	}
	if _, err := p.receiver.AddInbound(ab, kAB); err != nil {
		return 0, err
	}
	if ba != 0 {
		if kBA.AuthKey == nil {
			kBA = p.Keys()
		}
		if _, err := p.receiver.AddOutbound(ba, kBA, sel(dst, src)); err != nil {
			return 0, err
		}
		if _, err := p.sender.AddInbound(ba, kBA); err != nil {
			return 0, err
		}
	}
	p.tunnels = append(p.tunnels, [2]netip.Addr{src, dst})
	return i, nil
}

// seal seals on g, retrying save-lag backpressure within the budget.
func (p *GatewayPair) seal(g *ipsec.Gateway, src, dst netip.Addr, payload []byte) ([]byte, error) {
	for tries := 0; ; tries++ {
		w, err := g.Seal(src, dst, payload)
		if !errors.Is(err, core.ErrSaveLag) || tries >= retryBudget {
			return w, err
		}
		p.SaveLagRetries.Add(1)
		time.Sleep(retryPause)
	}
}

// Seal seals one payload on tunnel i at the sender and records the
// datagram in the history.
func (p *GatewayPair) Seal(i int, payload []byte) ([]byte, error) {
	w, err := p.seal(p.sender, p.tunnels[i][0], p.tunnels[i][1], payload)
	if err != nil {
		return nil, fmt.Errorf("seal tunnel %d: %w", i, err)
	}
	p.record(w)
	return w, nil
}

// Reply seals one payload on tunnel i's back direction at the current
// receiver (not recorded: the ledger books the forward direction).
func (p *GatewayPair) Reply(i int, payload []byte) ([]byte, error) {
	return p.seal(p.receiver, p.tunnels[i][1], p.tunnels[i][0], payload)
}

// Send seals one payload on tunnel i and delivers it; it reports whether
// the receiver delivered it for the first time.
func (p *GatewayPair) Send(i int, payload []byte) (bool, error) {
	w, err := p.Seal(i, payload)
	if err != nil {
		return false, err
	}
	return p.Deliver(w)
}

// Deliver hands one datagram to the path and opens what the path hands
// back at the current receiver.
func (p *GatewayPair) Deliver(w []byte) (bool, error) {
	if p.setup.Path != nil {
		var err error
		if w, err = p.setup.Path(w); err != nil || w == nil {
			if err == nil {
				p.Lost.Add(1)
			}
			return false, err
		}
	}
	return p.Open(w)
}

// Open opens one fresh datagram at the current receiver.
func (p *GatewayPair) Open(w []byte) (bool, error) { return p.open(w, true) }

// open defers through horizon backpressure, except on an SA whose lane is
// quarantined: there the horizon holds until repair, so the stall is
// counted at once and is the fault's cost, not a false reject.
func (p *GatewayPair) open(w []byte, fresh bool) (bool, error) {
	for tries := 0; ; tries++ {
		_, v, err := p.receiver.Open(w)
		switch {
		case err != nil:
			return false, err
		case v == core.VerdictDown:
			p.Lost.Add(1)
			return false, nil
		case v != core.VerdictHorizon:
			return p.settle(w, v.Delivered(), fresh), nil
		}
		p.HorizonStalls.Add(1)
		if p.quarantined(w) {
			p.settle(w, false, false)
			return false, nil
		}
		if tries >= retryBudget {
			return false, fmt.Errorf("open: horizon stall outlasted %d retries on a healthy lane", retryBudget)
		}
		time.Sleep(retryPause)
	}
}

func (p *GatewayPair) quarantined(w []byte) bool {
	spi, err := ipsec.ParseSPI(w)
	return err == nil && p.receiver.Journal().Lane(ipsec.InboundKey(spi)).Poisoned() != nil
}

// ReplayAll re-injects the full history at the current receiver through
// carry (nil: straight to the receiver). A second delivery of any
// datagram is a replay acceptance; a first one is a late delivery.
func (p *GatewayPair) ReplayAll(carry func([]byte) ([]byte, error)) error {
	var err error
	p.replay(func(w []byte) {
		if err != nil {
			return
		}
		if carry != nil {
			if w, err = carry(w); err != nil {
				return
			}
		}
		p.open(w, false) //nolint:errcheck // a rejected replay is the expected outcome
	})
	return err
}

// StartStandby opens the second receiver node as a cluster standby
// replicating the current receiver, and mirrors its SA population.
func (p *GatewayPair) StartStandby() error {
	name := "node2"
	if p.node[p.receiver.Journal()] == name {
		name = "node1"
	}
	return p.startStandby(name)
}

func (p *GatewayPair) startStandby(name string) error {
	m, err := p.openMedium(name, nil)
	if err != nil {
		return err
	}
	sb, err := cluster.NewStandby(cluster.Config{Source: p.receiver.Journal(), Journal: m,
		K: p.setup.K, W: p.setup.W, OnPromote: p.setup.OnPromote, OnLifecycle: p.setup.OnLifecycle})
	if err != nil {
		return err
	}
	p.standbys = append(p.standbys, sb)
	if err := sb.Start(); err != nil {
		return err
	}
	p.standby = sb
	return sb.Mirror(p.receiver.Snapshot())
}

// Crash resets the receiver: its volatile counters are lost, its medium
// survives. The wake window opens at the next Wake or Takeover.
func (p *GatewayPair) Crash() {
	p.markCrash()
	p.receiver.ResetAll()
}

// markCrash records the receiver's edges (and the standby's lag) as the
// pending reset's baseline, once.
func (p *GatewayPair) markCrash() {
	if p.crashEdge != nil {
		return
	}
	p.checkpoint()
	p.crashEdge = make(map[uint32]uint64)
	p.receiver.SAD().Range(func(sa *ipsec.InboundSA) bool {
		p.crashEdge[sa.SPI()] = sa.Receiver().Edge()
		return true
	})
	p.crashLag = 0
	if p.standby != nil {
		p.crashLag = p.standby.LagValues()
	}
}

// Wake runs the receiver's population wake-up (after a Crash, or on a
// live receiver, which then leaps in place).
func (p *GatewayPair) Wake() error {
	p.markCrash()
	err := p.receiver.WakeAll()
	if err != nil {
		p.fault("wake: %v", err)
	}
	p.openWindow("wake")
	return err
}

// Takeover promotes the standby into the receiver role. Without a prior
// Crash the old receiver is still live: a split brain, its writes fenced.
func (p *GatewayPair) Takeover() (uint64, error) {
	if p.standby == nil {
		return 0, errors.New("takeover: no standby")
	}
	p.markCrash()
	g, epoch, err := p.standby.Takeover()
	if err != nil {
		return 0, err
	}
	p.gateways = append(p.gateways, g)
	p.deposed, p.receiver, p.standby = p.receiver, g, nil
	p.Takeovers.Add(1)
	p.openWindow("takeover")
	return epoch, nil
}

// Rejoin reboots the deposed node on its medium as the standby of the
// current receiver (the failback roles).
func (p *GatewayPair) Rejoin() error {
	if p.deposed == nil {
		return errors.New("rejoin: no deposed node")
	}
	m := p.deposed.Journal()
	p.deposed.Close()
	p.deposed = nil
	if err := m.Close(); err != nil {
		return err
	}
	return p.startStandby(p.node[m])
}

// openWindow closes the pending reset: each SA's wake edge must not be
// below its crash edge, and the window they span must fit the
// replication-lag bound lag_values + SAs*(leap + 2K).
func (p *GatewayPair) openWindow(event string) {
	var bound uint64
	sas := uint64(0)
	for spi, edge := range p.crashEdge {
		sa, ok := p.receiver.SAD().Lookup(spi)
		if !ok {
			continue
		}
		wake := sa.Receiver().Edge()
		if wake < edge {
			p.fault("%s: SA %#x woke at edge %d below its crash edge %d", event, spi, wake, edge)
			continue
		}
		bound += wake - edge
		sas++
	}
	leap := core.Leap(p.setup.K, core.DefaultLeapFactor)
	limit := p.crashLag + sas*(leap+2*p.setup.K)
	if bound > limit {
		p.fault("%s: wake window %d above lag bound %d (lag_values %d)", event, bound, limit, p.crashLag)
	}
	p.windows = append(p.windows, wakeWindow{event: event, bound: bound, lag: p.crashLag, from: p.Sacrificed.Load()})
	p.crashEdge = nil
	p.checkpoint()
}

// checkpoint compares every live SA's durable counters on both roles
// against their last snapshot (a receiver's Committed, a sender's Seq)
// and takes the next one. SAs are keyed by SPI, so a promoted node is held
// to the floors its predecessor reached.
func (p *GatewayPair) checkpoint() {
	floor := func(key string, v uint64) {
		if last, ok := p.floors[key]; ok && v < last {
			p.fault("counter %s regressed %d -> %d", key, last, v)
		}
		p.floors[key] = v
	}
	for _, g := range []*ipsec.Gateway{p.sender, p.receiver} {
		g.SAD().Range(func(sa *ipsec.InboundSA) bool {
			if sa.Receiver().State() == core.StateUp {
				floor(fmt.Sprintf("in %#x", sa.SPI()), sa.Receiver().Committed())
			}
			return true
		})
		g.SPD().Range(func(_ ipsec.Selector, sa *ipsec.OutboundSA) bool {
			if sa.Sender().State() == core.StateUp {
				floor(fmt.Sprintf("out %#x", sa.SPI()), sa.Sender().Seq())
			}
			return true
		})
	}
}

func (p *GatewayPair) fault(format string, args ...any) {
	p.faults = append(p.faults, fmt.Sprintf(format, args...))
}

// lastWindow returns the latest wake window and the false rejects charged
// to it so far.
func (p *GatewayPair) lastWindow() (wakeWindow, uint64) {
	w := p.windows[len(p.windows)-1]
	return w, p.Sacrificed.Load() - w.from
}

// Check ends every scenario. It fails on a replay acceptance, on a counter
// below its last snapshot, and on a wake window breached: more false
// rejects than sum(wake edge - crash edge), or a window above the lag
// bound. Before the first reset the allowance is zero. The error names
// the scenario and the seed.
func (p *GatewayPair) Check() error {
	p.checkpoint()
	problems := p.problems(append([]string(nil), p.faults...))
	windows := append([]wakeWindow{{event: "steady state"}}, p.windows...)
	for i, w := range windows {
		to := p.Sacrificed.Load()
		if i+1 < len(windows) {
			to = windows[i+1].from
		}
		if rejects := to - w.from; rejects > w.bound {
			problems = append(problems, fmt.Sprintf("%s %d: %d false rejects exceed the wake window %d",
				w.event, i, rejects, w.bound))
		}
	}
	return scenarioError(p.setup.Scenario, p.setup.Seed, problems)
}
