package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"antireplay"
)

// loadGoroutines is the most load-generating goroutines the benchmark runs
// at once; the pool, commit, replication and socket goroutines belong to the
// program.
const loadGoroutines = 2

// imix is the seeded payload-size sequence: 64/576/1400 bytes in the
// classic 7:4:1 mix, shuffled.
type imix struct {
	sizes   []int
	pattern []byte
}

const hdrLen = 12 // payload header: packet index (8) + SA visit position (4)

func newIMIX(rng *rand.Rand) *imix {
	var sizes []int
	for i := 0; i < 256; i++ {
		sizes = append(sizes, 64, 64, 64, 64, 64, 64, 64, 576, 576, 576, 576, 1400)
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	pat := make([]byte, 1400)
	fillRand(rng, pat)
	return &imix{sizes: sizes, pattern: pat}
}

func (m *imix) size(idx uint64) int { return m.sizes[idx%uint64(len(m.sizes))] }

// counters tallies one worker's packet outcomes.
type counters struct {
	sealed, delivered, bytes  uint64
	lagRetries, horizonDefers uint64
	hardErrs, lost            uint64
	sacrificed                uint64 // fresh packets rejected within the wake bound
}

func (c *counters) addAll(o counters) {
	c.sealed += o.sealed
	c.delivered += o.delivered
	c.bytes += o.bytes
	c.lagRetries += o.lagRetries
	c.horizonDefers += o.horizonDefers
	c.hardErrs += o.hardErrs
	c.lost += o.lost
	c.sacrificed += o.sacrificed
}

func (c counters) sub(o counters) counters {
	return counters{sealed: c.sealed - o.sealed, delivered: c.delivered - o.delivered,
		bytes: c.bytes - o.bytes, lagRetries: c.lagRetries - o.lagRetries,
		horizonDefers: c.horizonDefers - o.horizonDefers, hardErrs: c.hardErrs - o.hardErrs,
		lost: c.lost - o.lost, sacrificed: c.sacrificed - o.sacrificed}
}

// worker is one load goroutine's packet state: reusable buffers, its span
// buffer and its tallies. Each worker numbers its packets in its own index
// space (the tag in the index's top bits), so delivered-twice detection
// never confuses two workers' packets.
type worker struct {
	c       *cluster
	m       *imix
	sp      *spanBuf
	next    uint64
	sealBuf []byte
	openBuf []byte
	payload []byte
	lat     []uint32
	cnt     counters
	seen    [numTags]bitset
	bad     []string
	// kept, when non-nil, collects a copy of every sealed packet.
	kept [][]byte
	// tick, when set, runs every tickEvery sealed packets (pool and
	// replication sampling).
	tick    func()
	measure bool // record latencies into lat
	// sealStart and sendEnd, when set, are the UDP sealer's per-index
	// timestamp rings: the opener learns a packet's index only from its
	// decrypted payload.
	sealStart, sendEnd *[udpRing]atomic.Int64
}

const (
	numTags   = 3
	tagShift  = 40
	tickEvery = 512
)

// newWorker builds a worker recording spans into span buffer bufIdx and
// numbering packets in index space tag.
func newWorker(c *cluster, m *imix, bufIdx int, tag uint64) *worker {
	w := &worker{c: c, m: m, sp: c.tr.buf(bufIdx), next: tag << tagShift,
		sealBuf: make([]byte, 0, 2048), openBuf: make([]byte, 0, 2048), payload: make([]byte, 1400)}
	copy(w.payload, m.pattern)
	return w
}

// sealed is one packet on its way: wire bytes, index, and the time the seal
// call started.
type sealed struct {
	wire []byte
	idx  uint64
	t0   time.Duration
}

// seal seals the next packet for the SA at visit position pos on the peer.
// errSkip reports save-lag backpressure (nothing was sealed).
func (w *worker) seal(from *antireplay.Gateway, pos int) (sealed, error) {
	pr := &w.c.pairs[w.c.order[pos]]
	idx := w.next
	size := w.m.size(idx)
	binary.LittleEndian.PutUint64(w.payload, idx)
	binary.LittleEndian.PutUint32(w.payload[8:], uint32(pos))
	t0 := now()
	wire, err := from.SealAppend(w.sealBuf[:0], pr.src, pr.dst, w.payload[:size])
	t1 := now()
	if err != nil {
		if errors.Is(err, antireplay.ErrSaveLag) {
			w.cnt.lagRetries++
			return sealed{}, errSkip
		}
		w.cnt.hardErrs++
		return sealed{}, fmt.Errorf("seal spi %#x: %w", pr.spi, err)
	}
	w.sealBuf = wire[:0]
	w.next++
	w.cnt.sealed++
	if w.tick != nil && w.cnt.sealed%tickEvery == 0 {
		w.tick()
	}
	if w.kept != nil {
		w.kept = append(w.kept, append([]byte(nil), wire...))
	}
	id := wirePktID(wire)
	w.sp.add(spSeal, t0, t1, id, -1)
	w.c.rec.note(pos, wire)
	return sealed{wire: wire, idx: idx, t0: t0}, nil
}

// horizonRetry is how long open waits before retrying a packet the strict
// durable horizon deferred, like a retransmission timer. Each retry repeats
// the whole open (ICV and decryption), so a shorter wait would make the
// benchmark's own CPU per packet follow the disk's speed.
const horizonRetry = 200 * time.Microsecond

// open opens s on gw, retrying while the strict durable horizon defers it.
// It reports whether the packet was delivered; a rejection (stale or
// duplicate) is not an error — the caller decides whether it is a bounded
// wake sacrifice or a failure.
func (w *worker) open(to *antireplay.Gateway, s sealed) (bool, error) {
	id := wirePktID(s.wire)
	for {
		t0 := now()
		out, v, err := to.OpenAppend(w.openBuf[:0], s.wire)
		t1 := now()
		w.sp.add(spOpen, t0, t1, id, -1)
		if err != nil {
			w.cnt.hardErrs++
			return false, fmt.Errorf("open spi %#x: %w", wireSPI(s.wire), err)
		}
		if v == antireplay.VerdictHorizon {
			w.cnt.horizonDefers++
			time.Sleep(horizonRetry)
			w.sp.add(spHorizonWait, t1, now(), id, -1)
			continue
		}
		if !v.Delivered() {
			return false, nil
		}
		w.delivered(s, out[len(w.openBuf):], t1)
		return true, nil
	}
}

// delivered checks a delivered payload against what was sealed and records
// the packet's latency.
func (w *worker) delivered(s sealed, got []byte, at time.Duration) {
	if err := w.check(s.wire, got); err != nil {
		w.bad = append(w.bad, err.Error())
		return
	}
	idx := binary.LittleEndian.Uint64(got)
	if w.seen[idx>>tagShift].testAndSet(idx & (1<<tagShift - 1)) {
		w.bad = append(w.bad, fmt.Sprintf("packet %d delivered twice (replay accepted)", idx))
		return
	}
	w.cnt.delivered++
	w.cnt.bytes += uint64(len(got))
	if !w.measure {
		return
	}
	t0 := s.t0
	if w.sealStart != nil {
		t0 = time.Duration(w.sealStart[idx%udpRing].Load())
		// A receive that overtook the sender's return from Send finds the
		// slot's previous packet's stamp; its transit then counts as 0.
		sent := time.Duration(w.sendEnd[idx%udpRing].Load())
		if sent < t0 {
			sent = s.t0
		}
		w.sp.add(spTransit, sent, s.t0, wirePktID(s.wire), -1)
	}
	w.lat = append(w.lat, uint32(min(at-t0, 1<<32-1)))
	w.sp.add(spPkt, t0, at, wirePktID(s.wire), -1)
}

// check verifies a delivered payload: its header names the SA the wire SPI
// belongs to, and its size and body match the seeded inputs.
func (w *worker) check(wire, got []byte) error {
	if len(got) < hdrLen {
		return fmt.Errorf("short payload %d", len(got))
	}
	idx := binary.LittleEndian.Uint64(got)
	pos := int(binary.LittleEndian.Uint32(got[8:]))
	if idx>>tagShift >= numTags || pos >= len(w.c.order) || w.c.pairs[w.c.order[pos]].spi != wireSPI(wire) {
		return fmt.Errorf("packet %d: payload for position %d arrived on spi %#x", idx, pos, wireSPI(wire))
	}
	if size := w.m.size(idx); len(got) != size || !bytes.Equal(got[hdrLen:], w.m.pattern[hdrLen:size]) {
		return fmt.Errorf("packet %d: payload corrupted (%d bytes, want %d)", idx, len(got), size)
	}
	return nil
}

// trip seals one packet on from and opens it on to, in-process.
func (w *worker) trip(from, to *antireplay.Gateway, pos int) (delivered bool, err error) {
	s, err := w.seal(from, pos)
	if err != nil {
		return false, err
	}
	return w.open(to, s)
}

// bitset tracks delivered packet indexes.
type bitset []uint64

func (b *bitset) testAndSet(i uint64) bool {
	word := i / 64
	for uint64(len(*b)) <= word {
		*b = append(*b, 0)
	}
	mask := uint64(1) << (i % 64)
	was := (*b)[word]&mask != 0
	(*b)[word] |= mask
	return was
}

// wirePktID is the packet id spans carry: SPI in the high half, the low 32
// bits of the sequence number in the low half.
func wirePktID(wire []byte) uint64 {
	return uint64(binary.BigEndian.Uint32(wire))<<32 | uint64(binary.BigEndian.Uint32(wire[4:]))
}

func wireSPI(wire []byte) uint32 { return binary.BigEndian.Uint32(wire) }

func wireSeq(wire []byte) uint32 { return binary.BigEndian.Uint32(wire[4:]) }

// udpWire is the loopback UDP transport of tunnel_udp: the peer's endpoint
// sends on ab, the primary's endpoint receives on ba (demultiplexed by SPI).
type udpWire struct {
	epA, epB *antireplay.UDPEndpoint
	ab, ba   *antireplay.UDPWireLink
}

// stopSPI marks the sentinel datagram that ends an opener goroutine; it is
// never a real SA's SPI (genPairs draws SPIs >= 256 and this one is below).
const stopSPI = 1

func newUDPWire(pairs []pair) (*udpWire, error) {
	u := &udpWire{}
	var err error
	if u.epA, err = antireplay.ListenWireUDP("", antireplay.UDPWireConfig{}); err != nil {
		return nil, fmt.Errorf("udp: %w", err)
	}
	if u.epB, err = antireplay.ListenWireUDP("", antireplay.UDPWireConfig{}); err != nil {
		u.close()
		return nil, fmt.Errorf("udp: %w", err)
	}
	spis := make([]uint32, len(pairs))
	for i, p := range pairs {
		spis[i] = p.spi
	}
	if u.ab, err = u.epA.Link(u.epB.Addr()); err == nil {
		u.ba, err = u.epB.Link(u.epA.Addr(), spis...)
	}
	if err != nil {
		u.close()
		return nil, fmt.Errorf("udp link: %w", err)
	}
	return u, nil
}

func (u *udpWire) close() {
	for _, ep := range []*antireplay.UDPEndpoint{u.epA, u.epB} {
		if ep != nil {
			ep.Close() //nolint:errcheck // teardown
		}
	}
}

// udpRing sizes the per-packet timestamp rings; it exceeds any window.
const udpRing = 1 << 12

// runUDP drives the closed loop of tunnel_udp for d: this goroutine seals
// and sends, one opener goroutine receives and opens, and at most inflight
// packets are outstanding. Packets not back within a second count as lost.
func (c *cluster) runUDP(m *imix, d time.Duration, inflight int, seal, open *worker) error {
	tokens := make(chan struct{}, inflight)
	for i := 0; i < inflight; i++ {
		tokens <- struct{}{}
	}
	var sealStart, sendEnd [udpRing]atomic.Int64
	open.sealStart, open.sendEnd = &sealStart, &sendEnd
	var wg sync.WaitGroup
	wg.Add(1)
	var openErr error
	go func() {
		defer wg.Done()
		openErr = c.udpOpener(open, tokens)
	}()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	deadline := now() + d
	pos := int(seal.cnt.sealed % uint64(len(c.order)))
	var sendErr error
	for now() < deadline && sendErr == nil {
		select {
		case <-tokens:
		default:
			timer.Reset(time.Second)
			select {
			case <-tokens:
			case <-timer.C:
				out := inflight - len(tokens)
				seal.cnt.lost += uint64(out)
				for i := 0; i < out; i++ {
					tokens <- struct{}{}
				}
				continue
			}
			if !timer.Stop() {
				<-timer.C
			}
		}
		s, err := seal.seal(c.peer.gw, pos)
		pos = (pos + 1) % len(c.order)
		if err != nil {
			tokens <- struct{}{}
			if err != errSkip {
				sendErr = err
			}
			continue
		}
		sealStart[s.idx%udpRing].Store(int64(s.t0))
		t0 := now()
		if err := c.udp.ab.Send(s.wire); err != nil {
			sendErr = fmt.Errorf("udp send: %w", err)
			break
		}
		t1 := now()
		seal.sp.add(spSend, t0, t1, wirePktID(s.wire), -1)
		sendEnd[s.idx%udpRing].Store(int64(t1))
	}
	// Drain: wait for every outstanding packet, then stop the opener with
	// the sentinel datagram.
	waitUntil := now() + time.Second
	for len(tokens) < inflight && now() < waitUntil {
		time.Sleep(100 * time.Microsecond)
	}
	seal.cnt.lost += uint64(inflight - len(tokens))
	stop := make([]byte, 8)
	binary.BigEndian.PutUint32(stop, stopSPI)
	if err := c.udp.ab.Send(stop); err != nil && sendErr == nil {
		sendErr = fmt.Errorf("udp send: %w", err)
	}
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	return openErr
}

func (c *cluster) udpOpener(w *worker, tokens chan struct{}) error {
	for {
		t0 := now()
		p, err := c.udp.ba.Recv()
		t1 := now()
		if err != nil {
			return fmt.Errorf("udp recv: %w", err)
		}
		w.sp.add(spRecvWait, t0, t1, 0, -1)
		if len(p) >= 8 && wireSPI(p) == stopSPI {
			return nil
		}
		if len(p) < 8 {
			w.cnt.hardErrs++
			continue
		}
		// t0 carries the receive time; delivered swaps in the seal time
		// from the ring once the payload names the packet's index.
		ok, err := w.open(c.primary.gw, sealed{wire: p, t0: t1})
		select {
		case tokens <- struct{}{}:
		default: // a late packet already written off as lost
		}
		if err != nil {
			return err
		}
		if !ok {
			w.bad = append(w.bad, fmt.Sprintf("fresh packet spi %#x seq %d rejected", wireSPI(p), wireSeq(p)))
		}
	}
}
