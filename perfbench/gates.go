package main

import (
	"fmt"
	"sync/atomic"

	"antireplay"
)

// recorder keeps, per SA, the first ciphertext ever sealed and a ring of the
// most recent ones, each tagged with the phase it was sealed in, plus the
// highest sequence number sealed. Each SA is sealed by one goroutine at a
// time, so the per-SA slots need no lock; phase is read atomically.
type recorder struct {
	first  []recEntry
	ring   [][recRing]recEntry
	next   []uint8
	maxSeq []uint32
	phase  atomic.Int32
}

const recRing = 4

type recEntry struct {
	wire  []byte
	phase int32
}

func newRecorder(n int) *recorder {
	return &recorder{first: make([]recEntry, n), ring: make([][recRing]recEntry, n),
		next: make([]uint8, n), maxSeq: make([]uint32, n)}
}

// nextPhase starts a new phase and returns its number.
func (r *recorder) nextPhase() int32 { return r.phase.Add(1) }

func (r *recorder) note(pos int, wire []byte) {
	ph := r.phase.Load()
	if r.first[pos].wire == nil {
		r.first[pos] = recEntry{wire: append([]byte(nil), wire...), phase: ph}
	}
	e := &r.ring[pos][r.next[pos]%recRing]
	e.wire = append(e.wire[:0], wire...)
	e.phase = ph
	r.next[pos]++
	if s := wireSeq(wire); s > r.maxSeq[pos] {
		r.maxSeq[pos] = s
	}
}

// each calls fn for every recorded ciphertext whose phase passes keep.
func (r *recorder) each(keep func(phase int32) bool, fn func(wire []byte)) {
	for pos := range r.first {
		if e := r.first[pos]; e.wire != nil && keep(e.phase) {
			fn(e.wire)
		}
		for _, e := range r.ring[pos] {
			if e.wire != nil && keep(e.phase) {
				fn(e.wire)
			}
		}
	}
}

func allPhases(int32) bool { return true }

// replayGate replays every recorded ciphertext whose phase passes keep into
// gw. Every one of them was already delivered (or deliberately sacrificed)
// by gw's lineage, so any delivery is a replay acceptance.
func replayGate(gw *antireplay.Gateway, r *recorder, keep func(int32) bool) (replayed, accepted int) {
	buf := make([]byte, 0, 2048)
	r.each(keep, func(wire []byte) {
		replayed++
		if _, v, err := gw.OpenAppend(buf[:0], wire); err == nil && v.Delivered() {
			accepted++
		}
	})
	return replayed, accepted
}

// counterGate checks recovered durable counters against the last values
// acknowledged before the crash: fetched(i) must never be below acked[i].
func counterGate(what string, acked []uint64, fetched func(i int) uint64) []string {
	var bad []string
	for i, a := range acked {
		if f := fetched(i); f < a {
			bad = append(bad, fmt.Sprintf("%s %d: recovered counter %d below acknowledged %d", what, i, f, a))
		}
	}
	return bad
}

// gates collects correctness-gate violations; any one fails the run.
type gates struct {
	violations      []string
	replayed        int
	replayAccepted  int
	lossMax         uint64
	leap            uint64
	counterChecks   int
	saveErrs        uint64
	canarySaves     uint64
	wakeLossSamples int
}

func (g *gates) fail(format string, args ...any) {
	if len(g.violations) < 50 {
		g.violations = append(g.violations, fmt.Sprintf(format, args...))
	}
}

func (g *gates) addAll(bad []string) {
	for _, b := range bad {
		g.fail("%s", b)
	}
}

// replay runs replayGate and records the outcome.
func (g *gates) replay(where string, gw *antireplay.Gateway, r *recorder, keep func(int32) bool) {
	n, acc := replayGate(gw, r, keep)
	g.replayed += n
	g.replayAccepted += acc
	if acc > 0 {
		g.fail("%s: %d of %d replayed ciphertexts accepted", where, acc, n)
	}
}

// loss checks one SA's fresh loss after a wake against the 2K leap bound.
// The standby is a sync follower, so its replicated value never exceeds the
// primary's delivered edge and the replication-lag term of the bound is 0.
func (g *gates) loss(where string, spi uint32, lost uint64) {
	g.wakeLossSamples++
	if lost > g.lossMax {
		g.lossMax = lost
	}
	if lost > g.leap {
		g.fail("%s: spi %#x lost %d fresh packets after wake, bound 2K = %d", where, spi, lost, g.leap)
	}
}
