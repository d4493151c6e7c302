package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"antireplay/internal/ike"
	"antireplay/internal/ipsec"
	"antireplay/internal/netsim"
	"antireplay/internal/rekey"
	"antireplay/internal/resetinj"
)

// RekeyConfig parameterizes the rekey-under-reset rollover experiment.
type RekeyConfig struct {
	// Seed drives all randomness (IKE nonces, loss draws, reorder shuffles).
	Seed int64
	// LossProbs is the sweep of per-message IKE loss probabilities; data
	// packets are additionally lost with half each probability.
	LossProbs []float64
	// Tunnels is the number of tunnels tracked per row.
	Tunnels int
	// PacketsPerPhase is the data traffic per tunnel before and after the
	// rollover.
	PacketsPerPhase int
	// InFlight is the number of old-SPI packets left in flight across each
	// tunnel's cutover.
	InFlight int
	// MaxAttempts bounds IKE retries per rollover trigger.
	MaxAttempts int
	// FastDH selects the small test group instead of group 14.
	FastDH bool
}

// DefaultRekeyConfig sweeps IKE loss up to the acceptance point (>= 5%)
// and beyond.
func DefaultRekeyConfig() RekeyConfig {
	return RekeyConfig{
		Seed:            1,
		LossProbs:       []float64{0, 0.05, 0.25},
		Tunnels:         4,
		PacketsPerPhase: 200,
		InFlight:        8,
		MaxAttempts:     64,
	}
}

// receiverEndpoint adapts a pair's receiver gateway to the resetinj crash
// interface: Reset crashes every SA's volatile counters at once (the
// machine reset of the paper's §3 multi-SA scenario) and Wake runs the
// population recovery, which opens the pair's wake window.
type receiverEndpoint struct{ p *GatewayPair }

func (r receiverEndpoint) Reset() { r.p.Crash() }
func (r receiverEndpoint) Wake()  { r.p.Wake() } //nolint:errcheck // Check reports a failed wake

// RekeyRollover demonstrates the make-before-break property end to end:
// soft lifetimes trip IKE-driven rollovers on a gateway pair while the
// receiver gateway is crashed mid-exchange (via resetinj on the simulation
// clock) and both the exchange and the data path suffer seeded loss and
// reordering. For every row the experiment asserts the two safety outcomes
// the rollover design exists for:
//
//   - in-flight old-SPI packets sealed after the receiver's recovery but
//     before the cutover all deliver during the drain window
//     (false_rejects must be 0);
//   - replaying the entire recorded history after retirement re-delivers
//     nothing (replay_accepts must be 0), and the retired generations'
//     journal cells are erased (cells_erased counts them).
//
// The "sacrificed" column is the paper's own receiver-reset cost — up to 2K
// fresh messages per reset, unrelated to the rollover — reported so the
// zero-false-reject claim is measured on top of, not instead of, the
// protocol's documented behavior.
func RekeyRollover(cfg RekeyConfig) (*Table, error) {
	t := &Table{
		ID:    "rekey",
		Title: "IKE-driven SA rollover under receiver resets (make-before-break)",
		Note: "Expect zero false_rejects and zero replay_accepts at every loss rate: " +
			"the drain window keeps old-SPI packets deliverable across the cutover and " +
			"retirement tombstones the old counters. sacrificed is the paper's own " +
			"<= 2K-per-reset recovery cost, not a rollover defect.",
		Columns: []string{"ike_loss", "rollovers", "ike_attempts", "delivered",
			"sacrificed", "inflight_ok", "false_rejects", "replay_accepts", "cells_erased"},
	}
	for _, p := range cfg.LossProbs {
		row, err := rekeyRolloverRow(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("experiments: rekey loss %.2f: %w", p, err)
		}
		t.AddRow(row...)
	}
	return t, nil
}

func rekeyRolloverRow(cfg RekeyConfig, loss float64) ([]string, error) {
	e := netsim.NewEngine(cfg.Seed)
	rng := e.Rand()
	p, err := NewGatewayPair(PairSetup{
		Scenario: fmt.Sprintf("rekey loss %.2f", loss), Seed: cfg.Seed, K: 25, W: 64,
		// Soft lifetime trips after roughly one phase of traffic.
		Lifetime: ipsec.Lifetime{SoftBytes: uint64(cfg.PacketsPerPhase) * 300 / 2},
		Path: func(w []byte) ([]byte, error) {
			if rng.Float64() < loss/2 {
				return nil, nil // data packet lost in the network
			}
			return w, nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	const k = 25
	group := ike.Group14()
	if cfg.FastDH {
		group = ike.TestGroup()
	}
	// Every party of every exchange draws a distinct seed from the engine's
	// deterministic source, so repeated rollovers negotiate distinct SPIs.
	ikeCfg := func(id string) ike.Config {
		return ike.Config{PSK: []byte("rekey-experiment"), Group: group,
			Rand: rand.New(rand.NewSource(rng.Int63())), ID: id}
	}

	var (
		attempts   int
		inflightOK int
		falseRej   int
		addrFor    = make(map[uint32]int) // live A->B SPI -> tunnel index
		inflight   [][]byte
	)
	// phase pushes packets-per-tunnel of traffic through the lossy path
	// with light reordering (batch shuffle).
	phase := func(packets int) error {
		batch := make([][]byte, 0, 8)
		flush := func() error {
			rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
			for _, w := range batch {
				if _, err := p.Deliver(w); err != nil {
					return err
				}
			}
			batch = batch[:0]
			return nil
		}
		for n := 0; n < packets; n++ {
			for i := 0; i < cfg.Tunnels; i++ {
				w, err := p.Seal(i, make([]byte, 280))
				if err != nil {
					return err
				}
				batch = append(batch, w)
				if len(batch) == cap(batch) {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		return flush()
	}

	// Establish and track the tunnels.
	o, err := rekey.New(rekey.Config{
		A: p.Sender(), B: p.Receiver(),
		// Each exchange attempt advances the virtual clock 2ms; the grace
		// window outlasts the worst-case retry budget, so no drained
		// generation can retire while its in-flight packets are unchecked.
		Grace:       time.Duration(cfg.MaxAttempts*cfg.Tunnels+10) * 2 * time.Millisecond,
		MaxAttempts: cfg.MaxAttempts,
		Clock:       e.Now,
		Exchange: func(oldAB, oldBA uint32) (ike.ChildKeys, error) {
			attempts++
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
			// Run the simulation forward between the two messages: this is
			// where resetinj's scheduled receiver crash fires, mid-exchange.
			e.RunFor(2 * time.Millisecond)
			if rng.Float64() < loss {
				return ike.ChildKeys{}, fmt.Errorf("rekey request lost")
			}
			m2, err := rsp.HandleRequest(m1)
			if err != nil {
				return ike.ChildKeys{}, err
			}
			if rng.Float64() < loss {
				return ike.ChildKeys{}, fmt.Errorf("rekey response lost")
			}
			// This attempt will complete, so the cutover is imminent. First
			// flush the receiver's post-reset sacrifice window on this
			// tunnel (the paper's <= 2K cost) over a lossless path, then
			// leave InFlight packets in flight on the old SPI across the
			// cutover.
			ti := addrFor[oldAB]
			for n := 0; n < 3*k; n++ {
				w, err := p.Seal(ti, make([]byte, 280))
				if err != nil {
					return ike.ChildKeys{}, err
				}
				if _, err := p.Open(w); err != nil {
					return ike.ChildKeys{}, err
				}
			}
			for n := 0; n < cfg.InFlight; n++ {
				w, err := p.Seal(ti, make([]byte, 280))
				if err != nil {
					return ike.ChildKeys{}, err
				}
				inflight = append(inflight, w)
			}
			if err := ini.HandleResponse(m2); err != nil {
				return ike.ChildKeys{}, err
			}
			return ini.ChildKeys(), nil
		},
	})
	if err != nil {
		return nil, err
	}
	tunnels := make([]*rekey.Tunnel, cfg.Tunnels)
	var oldKeys []string
	for i := range tunnels {
		res, err := ike.Establish(ikeCfg(fmt.Sprintf("init-%d", i)), ikeCfg(fmt.Sprintf("resp-%d", i)))
		if err != nil {
			return nil, err
		}
		kk := res.Keys
		if _, err := p.AddTunnel(kk.SPIInitToResp, kk.SPIRespToInit, kk.InitToResp, kk.RespToInit); err != nil {
			return nil, err
		}
		if tunnels[i], err = o.Track(kk.SPIInitToResp, kk.SPIRespToInit); err != nil {
			return nil, err
		}
		addrFor[kk.SPIInitToResp] = i
		oldKeys = append(oldKeys,
			ipsec.OutboundKey(kk.SPIInitToResp), ipsec.InboundKey(kk.SPIRespToInit), // A's cells
			ipsec.InboundKey(kk.SPIInitToResp), ipsec.OutboundKey(kk.SPIRespToInit)) // B's cells
	}

	// Phase 1: traffic past the soft lifetime.
	if err := phase(cfg.PacketsPerPhase); err != nil {
		return nil, err
	}

	// Schedule the receiver crash to strike mid-exchange of the first
	// rollover attempt, then poll until every tunnel has rolled over.
	resetinj.Schedule(e, receiverEndpoint{p}, e.Now()+500*time.Microsecond, e.Now()+time.Millisecond)
	for polls := 0; o.Stats().Rollovers < uint64(cfg.Tunnels); polls++ {
		if polls > cfg.MaxAttempts*cfg.Tunnels {
			return nil, fmt.Errorf("rollovers did not converge: %+v", o.Stats())
		}
		o.Poll() //nolint:errcheck // lost exchanges retry on the next poll
	}
	for i, tun := range tunnels {
		ab, _ := tun.SPIs()
		addrFor[ab] = i
	}

	// The in-flight old-SPI packets must all deliver during the drain.
	for _, w := range inflight {
		ok, err := p.Open(w)
		if err != nil {
			return nil, fmt.Errorf("in-flight old-SPI packet: %w", err)
		}
		if ok {
			inflightOK++
		} else {
			falseRej++
		}
	}

	// Phase 2: lighter traffic on the successors (below their own soft
	// bound, so the measurement window holds exactly one rollover per
	// tunnel), then retire the drained generations by advancing the
	// virtual clock past the grace window.
	if err := phase(cfg.PacketsPerPhase / 4); err != nil {
		return nil, err
	}
	e.RunFor(time.Duration(cfg.MaxAttempts*cfg.Tunnels+20) * 2 * time.Millisecond)
	if err := o.Poll(); err != nil {
		return nil, err
	}

	// Replay the entire history: a delivery of an already-delivered wire is
	// a replay acceptance.
	if err := p.ReplayAll(nil); err != nil {
		return nil, err
	}
	if err := p.Check(); err != nil {
		return nil, err
	}

	// The retired generations' journal cells must be erased.
	erased := 0
	for n, key := range oldKeys {
		j := p.Sender().Journal()
		if n%4 >= 2 {
			j = p.Receiver().Journal()
		}
		if _, ok, _ := j.Cell(key).Fetch(); !ok {
			erased++
		}
	}

	st := o.Stats()
	return []string{
		fmt.Sprintf("%.0f%%", loss*100),
		fmt.Sprint(st.Rollovers),
		fmt.Sprint(attempts),
		fmt.Sprint(p.Delivered.Load()),
		fmt.Sprint(p.Sacrificed.Load()),
		fmt.Sprintf("%d/%d", inflightOK, len(inflight)),
		fmt.Sprint(falseRej),
		fmt.Sprint(p.replays),
		fmt.Sprintf("%d/%d", erased, len(oldKeys)),
	}, nil
}
