package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"antireplay"
)

// cycleTimes are one failover cycle's timings.
type cycleTimes struct {
	takeover, blackout, coldstart time.Duration
	promote, takeoverWake         time.Duration
	recover, adopt, coldWake      time.Duration
	// Process CPU time over the same intervals.
	takeoverCPU, blackoutCPU, coldstartCPU time.Duration
}

// ackedInbound reads every inbound SA's last acknowledged durable value on
// the primary, in visit-position order.
func (r *run) ackedInbound(gw *antireplay.Gateway) ([]uint64, error) {
	out := make([]uint64, len(r.c.order))
	for pos, i := range r.c.order {
		in, ok := gw.SAD().Lookup(r.c.pairs[i].spi)
		if !ok {
			return nil, fmt.Errorf("inbound spi %#x missing", r.c.pairs[i].spi)
		}
		out[pos] = in.Receiver().Committed()
	}
	return out, nil
}

// failover runs one cycle: crash the primary (ResetAll), promote the
// standby (Takeover), send until every SA delivers on the promoted node,
// cold-restart the deposed node from its own lane directory (NewLanes +
// NewGateway + Adopt + WakeAll, then until every SA delivers), and rejoin it
// as the new standby. The correctness gates run after the crash and after
// the cold restart.
func (r *run) failover() error {
	c := r.c
	acked, err := r.ackedInbound(c.primary.gw)
	if err != nil {
		return err
	}
	canaryAcked := r.canaryAcked
	crashPhase := c.rec.phase.Load()
	var ct cycleTimes

	// Collect garbage first so the CPU timings below pay for their own
	// work, not for the traffic before them.
	runtime.GC()
	cpuCrash := cpuTime()
	tCrash := now()
	c.primary.gw.ResetAll()
	cpu0, t0 := cpuTime(), now()
	promoted, _, err := c.standby.Takeover()
	t1, cpu1 := now(), cpuTime()
	ct.takeoverCPU = cpu1 - cpu0
	if err != nil {
		return fmt.Errorf("takeover: %w", err)
	}
	ct.takeover, ct.promote, ct.takeoverWake = t1-t0, c.promoteAt-t0, c.wakeDoneAt-c.wakeAt
	sp := r.tr.buf(0)
	root := sp.add(spTakeover, t0, t1, 0, -1)
	sp.add(spPromote, t0, c.promoteAt, 0, root)
	sp.add(spWakeAll, c.wakeAt, c.wakeDoneAt, 0, root)
	c.rec.nextPhase()
	if err := r.untilAllDeliver(promoted, acked, "takeover", false); err != nil {
		return err
	}
	ct.blackout, ct.blackoutCPU = now()-tCrash, cpuTime()-cpuCrash
	r.g.replay("after takeover", promoted, c.rec, allPhases)
	r.canaryGate("after takeover", c.standbyNode.lanes, canaryAcked)

	// The deposed node stops; the promoted one becomes the primary.
	deposed := c.primary
	c.closeNode(deposed)
	c.standby.Stop()
	c.primary = &node{dir: c.standbyNode.dir, lanes: c.standbyNode.lanes, gw: promoted}
	c.standby, c.standbyNode = nil, nil

	snap := promoted.Snapshot()
	coldPhase := c.rec.nextPhase()
	runtime.GC()
	cpu3, t3 := cpuTime(), now()
	lanes, err := antireplay.NewLanes(deposed.dir, c.lanesOpts()...)
	t4 := now()
	if err != nil {
		return fmt.Errorf("cold restart: %w", err)
	}
	sp.add(spNewLanes, t3, t4, 0, -1)
	cold := &node{dir: deposed.dir, lanes: lanes, pool: antireplay.NewSaverPool(0)}
	c.pools = append(c.pools, cold.pool)
	cold.gw, err = antireplay.NewGateway(antireplay.GatewayConfig{Journal: lanes, Pool: cold.pool, K: c.p.k, W: window})
	if err != nil {
		c.closeNode(cold)
		return fmt.Errorf("cold restart: %w", err)
	}
	t5 := now()
	err = cold.gw.Adopt(snap)
	t6 := now()
	if err == nil {
		err = cold.gw.WakeAll()
	}
	t7 := now()
	if err != nil {
		c.closeNode(cold)
		return fmt.Errorf("cold restart: %w", err)
	}
	sp.add(spAdopt, t5, t6, 0, -1)
	sp.add(spWakeAll, t6, t7, 0, -1)
	if err := r.untilAllDeliver(cold.gw, acked, "cold restart", true); err != nil {
		c.closeNode(cold)
		return err
	}
	ct.coldstart, ct.coldstartCPU = now()-t3, cpuTime()-cpu3
	ct.recover, ct.adopt, ct.coldWake = t4-t3, t6-t5, t7-t6
	// The cold node's lineage delivered everything up to the crash and its
	// own cold-start traffic, not the promoted node's blackout traffic.
	r.g.replay("after cold restart", cold.gw, c.rec, func(ph int32) bool { return ph <= crashPhase || ph == coldPhase })
	r.canaryGate("after cold restart", lanes, canaryAcked)
	// The promoted node sees the cold-start packets too, so that its
	// lineage covers every recorded ciphertext again.
	if err := r.feed(promoted); err != nil {
		c.closeNode(cold)
		return err
	}
	cold.pool.Close()
	cold.pool = nil
	cold.gw.Close() //nolint:errcheck // releases the claims the standby image takes next
	cold.gw = nil
	c.standbyNode = cold
	if err := c.attachStandby(); err != nil {
		return err
	}
	c.rec.nextPhase()
	r.cycles = append(r.cycles, ct)
	return nil
}

// feed opens every packet the workers kept on gw, retrying through horizon
// deferrals, and stops keeping.
func (r *run) feed(gw *antireplay.Gateway) error {
	buf := make([]byte, 0, 2048)
	for _, w := range r.ws {
		for _, wire := range w.kept {
			for {
				_, v, err := gw.OpenAppend(buf[:0], wire)
				if err != nil {
					return fmt.Errorf("feed: %w", err)
				}
				if v != antireplay.VerdictHorizon {
					break
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
		w.kept = nil
	}
	return nil
}

// untilAllDeliver sends fresh packets from the peer to gw, round after round
// over the SAs that have not delivered yet, until every SA has delivered
// one. First every SA's recovered counter (the wake leap minus 2K) is
// checked against acked; every fresh packet an SA rejects before
// delivering is wake sacrifice, checked against the 2K bound. keep makes
// the workers keep copies of what they seal.
func (r *run) untilAllDeliver(gw *antireplay.Gateway, acked []uint64, where string, keep bool) error {
	c := r.c
	leap := 2 * c.p.k
	n := len(c.order)
	ins := make([]*antireplay.InboundSA, n)
	for pos, i := range c.order {
		in, ok := gw.SAD().Lookup(c.pairs[i].spi)
		if !ok {
			return fmt.Errorf("%s: inbound spi %#x missing", where, c.pairs[i].spi)
		}
		ins[pos] = in
	}
	r.g.addAll(counterGate(where+": inbound", acked, func(pos int) uint64 { return ins[pos].Receiver().Committed() - leap }))
	r.g.counterChecks += n
	lost := make([]uint64, n)
	var wg sync.WaitGroup
	errs := make([]error, loadGoroutines)
	for wi := 0; wi < loadGoroutines; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := r.ws[wi]
			if keep {
				w.kept = [][]byte{}
			}
			var pending []int
			for pos := wi; pos < n; pos += loadGoroutines {
				pending = append(pending, pos)
			}
			for len(pending) > 0 {
				next := pending[:0]
				progressed := false
				for _, pos := range pending {
					s, err := w.seal(c.peer.gw, pos)
					if errors.Is(err, errSkip) {
						next = append(next, pos)
						continue
					}
					if err != nil {
						errs[wi] = err
						return
					}
					progressed = true
					ok, err := w.open(gw, s)
					if err != nil {
						errs[wi] = err
						return
					}
					if ok {
						continue
					}
					lost[pos]++
					w.cnt.sacrificed++
					if lost[pos] > 4*leap+64 {
						errs[wi] = fmt.Errorf("%s: spi %#x never delivers after %d packets", where, wireSPI(s.wire), lost[pos])
						return
					}
					next = append(next, pos)
				}
				pending = next
				if !progressed {
					time.Sleep(50 * time.Microsecond) // every remaining SA is at its save horizon
				}
			}
		}(wi)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for pos, l := range lost {
		r.g.loss(where, c.pairs[c.order[pos]].spi, l)
	}
	return nil
}

// trafficRounds sends rounds packets on every SA, the SAs split between the
// two workers; measured makes it one measured traffic segment.
func (r *run) trafficRounds(rounds int, measured bool) error {
	c := r.c
	n := len(c.order)
	if measured {
		r.beginSegment()
	}
	var wg sync.WaitGroup
	errs := make([]error, loadGoroutines)
	for wi := 0; wi < loadGoroutines; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := r.ws[wi]
			for round := 0; round < rounds; round++ {
				for pos := wi; pos < n; pos += loadGoroutines {
					ok, err := w.trip(c.peer.gw, c.primary.gw, pos)
					if errors.Is(err, errSkip) {
						continue
					}
					if err != nil {
						errs[wi] = err
						return
					}
					if !ok {
						w.bad = append(w.bad, fmt.Sprintf("fresh packet on spi %#x rejected", c.pairs[c.order[pos]].spi))
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	if measured {
		r.endSegment()
	}
	return errors.Join(errs...)
}

// senderCrash resets and wakes every outbound SA on the peer and checks the
// sender side of the protocol: the recovered counter is not below the last
// acknowledged SAVE, and the first sequence number after the wake is above
// every number sealed before the crash (no reuse).
func (r *run) senderCrash() error {
	c := r.c
	leap := 2 * c.p.k
	acked := make([]uint64, len(c.order))
	outs := make([]*antireplay.OutboundSA, len(c.order))
	for pos, i := range c.order {
		out, ok := c.peer.gw.Outbound(c.pairs[i].spi)
		if !ok {
			return fmt.Errorf("outbound spi %#x missing", c.pairs[i].spi)
		}
		outs[pos], acked[pos] = out, out.Sender().Committed()
	}
	c.peer.gw.ResetAll()
	if err := c.peer.gw.WakeAll(); err != nil {
		return fmt.Errorf("peer wake: %w", err)
	}
	r.g.addAll(counterGate("outbound", acked, func(pos int) uint64 { return outs[pos].Sender().Committed() - leap }))
	for pos, out := range outs {
		if s := out.Sender().Seq(); s <= uint64(c.rec.maxSeq[pos]) {
			r.g.fail("outbound spi %#x: first sequence number %d after wake reuses %d", out.SPI(), s, c.rec.maxSeq[pos])
		}
	}
	r.g.counterChecks += 2 * len(outs)
	return nil
}
