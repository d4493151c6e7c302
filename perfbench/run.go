package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"antireplay"
)

// params is one workload's shape.
type params struct {
	name     string
	pairs    int    // SA pairs installed
	k        uint64 // SAVE interval on every SA
	setups   int    // fixture builds per run; setup_s is the median of their CPU times
	udp      bool   // window: closed loop over loopback UDP
	inflight int    // UDP window: packets in flight
	storm    bool   // window: in-process bursts plus the canary saver
	maxBurst int    // storm: longest per-SA burst
	rounds   int    // otherwise the window is failover cycles with this many traffic rounds each
	// minCycles is the fewest failover cycles the window runs, however
	// long they take.
	minCycles int
}

var workloads = []params{
	{name: "tunnel_udp", pairs: 256, k: 1024, setups: 21, udp: true, inflight: 16},
	{name: "commit_storm", pairs: 1024, k: 4, setups: 11, storm: true, maxBurst: 16},
	{name: "failover_cycle", pairs: 4096, k: 16, setups: 5, rounds: 16, minCycles: 6},
}

func lookup(name string) (params, bool) {
	for _, p := range workloads {
		if p.name == name {
			return p, true
		}
	}
	return params{}, false
}

// run is one benchmark invocation: the fixture, the load workers, the
// correctness gates and everything measured.
type run struct {
	p     params
	seed  uint64
	trace bool
	root  string
	// traceDir receives a traced run's spans, beside the data directory.
	traceDir string
	m        *imix
	tr       *tracer
	c        *cluster
	ws       [loadGoroutines]*worker
	udpW     *worker // the UDP sealer, in its own index space
	g        gates

	// setupS and setupWall are each fixture build's process CPU time and
	// wall time, in seconds.
	setupS, setupWall, installRate []float64
	installCPU                     []float64 // us per pair
	heapPerSA                      float64

	canaryAcked uint64
	canaryLat   []uint32
	cycles      []cycleTimes

	// The current measured segment and the sums over finished ones.
	segStart    procSample
	segCnt      counters
	segApplied  uint64
	segWall     time.Duration
	segAllocs   uint64
	segGC, segT float64
	// segCPUPerPkt is each finished segment's CPU microseconds per
	// delivered packet; cpu_us_per_pkt is their median.
	segCPUPerPkt []float64
	sum          counters
	applied      uint64
	qMax         int
	lagSamples   []uint32
	poolsAtStart poolTotals
	untr         packetStats // the untraced half of a traced run
}

// poolTotals sums the counters of every benchmark-owned SaverPool.
type poolTotals struct{ persisted, retries uint64 }

func (r *run) poolTotals() poolTotals {
	var t poolTotals
	for _, p := range r.c.pools {
		t.persisted += p.SavesPersisted()
		t.retries += p.SaveRetries()
	}
	return t
}

func (r *run) workers() []*worker {
	out := r.ws[:]
	if r.udpW != nil {
		out = append(out[:len(out):len(out)], r.udpW)
	}
	return out
}

func (r *run) counters() counters {
	var c counters
	for _, w := range r.workers() {
		c.addAll(w.cnt)
	}
	return c
}

// beginSegment starts a measured traffic segment, after a garbage
// collection so that the segment pays only for its own garbage.
func (r *run) beginSegment() {
	runtime.GC()
	r.segStart = sampleProc()
	r.segCnt = r.counters()
	if r.c.standby != nil {
		r.segApplied = r.c.standby.Stats().AppliedRecords
	}
	for _, w := range r.workers() {
		w.measure = true
	}
}

func (r *run) endSegment() {
	end := sampleProc()
	for _, w := range r.workers() {
		w.measure = false
	}
	r.segWall += end.at - r.segStart.at
	r.segAllocs += end.allocs - r.segStart.allocs
	r.segGC += end.gcCPU - r.segStart.gcCPU
	r.segT += end.allCPU - r.segStart.allCPU
	seg := r.counters().sub(r.segCnt)
	if seg.delivered > 0 {
		r.segCPUPerPkt = append(r.segCPUPerPkt, perPkt(float64(end.cpu-r.segStart.cpu)/1e3, seg.delivered))
	}
	r.sum.addAll(seg)
	if r.c.standby != nil {
		r.applied += r.c.standby.Stats().AppliedRecords - r.segApplied
	}
}

// resetMeasure clears the measured segments and latency samples.
func (r *run) resetMeasure() {
	r.segWall, r.segAllocs, r.segGC, r.segT = 0, 0, 0, 0
	r.segCPUPerPkt = nil
	r.sum, r.applied, r.qMax, r.lagSamples = counters{}, 0, 0, nil
	for _, w := range r.workers() {
		w.lat = w.lat[:0]
	}
	r.canaryLat = r.canaryLat[:0]
	r.cycles = nil
	r.poolsAtStart = r.poolTotals()
}

// tick samples the pool backlog and the replication lag; it runs on one
// load goroutine every tickEvery sealed packets.
func (r *run) tick() {
	q := 0
	for _, n := range []*node{r.c.peer, r.c.primary} {
		if n.pool != nil {
			q += n.pool.QueueDepth()
		}
	}
	r.qMax = max(r.qMax, q)
	if r.c.standby != nil {
		r.lagSamples = append(r.lagSamples, uint32(r.c.standby.Stats().LagRecords))
	}
}

// execute runs the whole workload: set-up, the measured window and the
// closing gates. The fixture is torn down on return.
func (r *run) execute(d time.Duration) error {
	rng := rand.New(rand.NewPCG(r.seed, r.seed^0x9e3779b97f4a7c15))
	pairs := genPairs(rng, r.p.pairs)
	order := rng.Perm(r.p.pairs)
	r.m = newIMIX(rng)
	bursts := make([]int, 4096)
	for i := range bursts {
		bursts[i] = 1 + rng.IntN(max(r.p.maxBurst, 1))
	}
	r.tr = newTracer(r.trace)
	r.g.leap = 2 * r.p.k

	for i := 0; i < r.p.setups; i++ {
		last := i == r.p.setups-1
		heap0 := heapInUse() // also keeps earlier garbage out of the timings
		dir := filepath.Join(r.root, fmt.Sprintf("setup-%d", i))
		t0, cpu0 := now(), cpuTime()
		c, err := newCluster(r.p, dir, pairs, order, r.tr)
		t1, cpu1 := now(), cpuTime()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, (cpu1 - cpu0).Seconds())
		r.setupWall = append(r.setupWall, (t1 - t0).Seconds())
		r.installRate = append(r.installRate, c.installRate)
		r.installCPU = append(r.installCPU, float64(c.installCPU)/1e3/float64(r.p.pairs))
		if !last {
			c.close()
			if err := os.RemoveAll(dir); err != nil {
				return fmt.Errorf("setup cleanup: %w", err)
			}
			continue
		}
		r.c = c
		r.heapPerSA = float64(heapInUse()-heap0) / float64(3*r.p.pairs)
	}
	defer r.c.close()
	for i := range r.ws {
		r.ws[i] = newWorker(r.c, r.m, i, uint64(i))
	}
	r.ws[0].tick = r.tick
	if r.p.udp {
		r.udpW = newWorker(r.c, r.m, 0, 2)
		r.udpW.tick = r.tick
		r.ws[0].tick = nil
	}
	r.c.rec.nextPhase()
	r.resetMeasure()

	if err := r.window(d, bursts); err != nil {
		return err
	}
	return r.closingGates()
}

// packetStats summarizes the measured traffic segments so far.
type packetStats struct {
	pps, goodput                    float64
	cpuPerPkt, allocsPerPkt, gcFrac float64
	lat                             tail // ns
}

func (r *run) packetStats() packetStats {
	wall := max(r.segWall.Seconds(), 1e-9)
	return packetStats{
		pps:          float64(r.sum.delivered) / wall,
		goodput:      float64(r.sum.bytes) * 8 / wall / 1e6,
		cpuPerPkt:    median(r.segCPUPerPkt),
		allocsPerPkt: perPkt(float64(r.segAllocs), r.sum.delivered),
		gcFrac:       r.segGC / max(r.segT, 1e-9),
		lat:          summarize(r.latencies()),
	}
}

// window runs the workload's measured activity for d. A traced run splits
// it: the first half untraced (kept in r.untr), the second traced.
func (r *run) window(d time.Duration, bursts []int) error {
	if !r.trace {
		return r.activity(d, bursts)
	}
	if err := r.activity(d/2, bursts); err != nil {
		return err
	}
	r.untr = r.packetStats()
	r.resetMeasure()
	r.tr.setOn(true)
	defer r.tr.setOn(false)
	return r.activity(d-d/2, bursts)
}

func perPkt(x float64, pkts uint64) float64 {
	if pkts == 0 {
		return 0
	}
	return x / float64(pkts)
}

// windowSegments is how many measured segments the tunnel_udp and
// commit_storm windows are cut into. cpu_us_per_pkt is the median over the
// segments (on failover_cycle, over the cycles' traffic), so that a few
// seconds in which the shared host runs slow do not move it.
const windowSegments = 10

func (r *run) activity(d time.Duration, bursts []int) error {
	switch {
	case r.p.udp:
		for i := 0; i < windowSegments; i++ {
			r.beginSegment()
			err := r.c.runUDP(r.m, d/windowSegments, r.p.inflight, r.udpW, r.ws[1])
			r.endSegment()
			if err != nil {
				return err
			}
		}
		return nil
	case r.p.storm:
		return r.storm(d, bursts)
	default:
		deadline := now() + d
		for i := 0; i < r.p.minCycles || now() < deadline; i++ {
			if err := r.trafficRounds(r.p.rounds, true); err != nil {
				return err
			}
			if err := r.failover(); err != nil {
				return err
			}
		}
		return nil
	}
}

// storm is commit_storm's window: one goroutine sends seeded bursts on SA
// after SA (seal then open, in-process), moving on when the sender refuses
// at its save horizon; the other runs canary SAVEs, one per canaryEvery
// delivered packets, back to back whenever it falls behind. Pacing the
// canary by the packets fixes its SAVEs per delivered packet: run back to
// back, its SAVE rate follows the disk while the packet rate follows the
// horizon stalls, and the canary's share of cpu_us_per_pkt moved with them.
func (r *run) storm(d time.Duration, bursts []int) error {
	c := r.c
	deadline := now() + d
	pace := make(chan struct{}, 64)
	var wg sync.WaitGroup
	var canaryErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		canaryErr = r.canary(deadline, pace)
	}()
	w := r.ws[0]
	var err error
	start, pos, b := now(), 0, 0
	for seg := 1; seg <= windowSegments && err == nil; seg++ {
		r.beginSegment()
		for end := start + d*time.Duration(seg)/windowSegments; now() < end && err == nil; pos, b = (pos+1)%len(c.order), b+1 {
			err = r.burst(w, pos, bursts[b%len(bursts)], pace)
		}
		r.endSegment()
	}
	close(pace)
	wg.Wait()
	return errors.Join(err, canaryErr)
}

// burst sends up to n packets on the SA at visit position pos, stopping
// early when the sender refuses at its save horizon, and ticks pace once
// per canaryEvery delivered packets.
func (r *run) burst(w *worker, pos, n int, pace chan<- struct{}) error {
	c := r.c
	for i := 0; i < n; i++ {
		ok, err := w.trip(c.peer.gw, c.primary.gw, pos)
		if errors.Is(err, errSkip) {
			return nil
		}
		if err != nil {
			return err
		}
		if !ok {
			w.bad = append(w.bad, fmt.Sprintf("fresh packet on spi %#x rejected", c.pairs[c.order[pos]].spi))
			continue
		}
		if w.cnt.delivered%canaryEvery == 0 {
			select {
			case pace <- struct{}{}:
			default: // the canary is behind and runs back to back
			}
		}
	}
	return nil
}

// canaryEvery is how many delivered packets commit_storm sends per canary
// SAVE.
const canaryEvery = 8

// canary runs synchronous SAVEs of an increasing value on a probe key of
// the primary's medium, one per value received on pace, until pace is
// closed or deadline passes. Each acknowledged value is the floor the
// counter gate later holds the recovered canary to.
func (r *run) canary(deadline time.Duration, pace <-chan struct{}) error {
	cell := r.c.primary.lanes.Cell(r.c.canaryKey)
	v, _, err := cell.Fetch()
	if err != nil {
		return fmt.Errorf("canary fetch: %w", err)
	}
	v = max(v, r.canaryAcked)
	sp := r.tr.buf(1)
	for range pace {
		if now() >= deadline {
			break
		}
		v++
		t0 := now()
		err := cell.Save(v)
		t1 := now()
		r.g.canarySaves++
		if err != nil {
			r.g.saveErrs++
			r.g.fail("canary save %d: %v", v, err)
			continue
		}
		r.canaryAcked = v
		r.canaryLat = append(r.canaryLat, uint32(min(t1-t0, 1<<32-1)))
		sp.add(spCanary, t0, t1, 0, -1)
	}
	return nil
}

// closingGates runs after everything measured: one more round of traffic,
// the replay gate on the primary, a sender-side crash of the whole peer
// with its counter and no-reuse checks, traffic again (every SA must
// deliver at once) and a last replay gate.
func (r *run) closingGates() error {
	if err := r.trafficRounds(1, false); err != nil {
		return err
	}
	r.g.replay("closing", r.c.primary.gw, r.c.rec, allPhases)
	if err := r.senderCrash(); err != nil {
		return err
	}
	r.c.rec.nextPhase()
	if err := r.trafficRounds(1, false); err != nil {
		return err
	}
	r.g.replay("after sender crash", r.c.primary.gw, r.c.rec, allPhases)
	r.canaryGate("closing", r.c.primary.lanes, r.canaryAcked)
	for _, w := range r.workers() {
		for _, b := range w.bad {
			r.g.fail("%s", b)
		}
	}
	return nil
}

// canaryGate checks that the canary key's counter on lanes is not below
// acked, the last canary SAVE acknowledged before the crash it follows.
func (r *run) canaryGate(where string, lanes *antireplay.Lanes, acked uint64) {
	v, _, err := lanes.Cell(r.c.canaryKey).Fetch()
	if err != nil {
		r.g.fail("%s: canary fetch: %v", where, err)
		return
	}
	r.g.addAll(counterGate(where+": canary", []uint64{acked}, func(int) uint64 { return v }))
}

// latencies merges every worker's packet latencies (ns).
func (r *run) latencies() []uint32 {
	var out []uint32
	for _, w := range r.workers() {
		out = append(out, w.lat...)
	}
	return out
}
