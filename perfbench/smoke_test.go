package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test holds the program to.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return s
}

// tiny shrinks a workload to a smoke-test size.
func tiny(p params) params {
	p.pairs = 32
	p.setups = 1
	p.minCycles = min(p.minCycles, 1)
	p.rounds = min(p.rounds, 2)
	if p.k > 64 {
		p.k = 64
	}
	return p
}

// TestEveryMetricEmitted runs each workload tiny, untraced and traced, and
// checks the result carries exactly the metrics BENCHMARK.json names, each
// with its unit, and that the correctness gates passed.
func TestEveryMetricEmitted(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, w := range s.Workloads {
		p, ok := lookup(w.Name)
		if !ok {
			t.Fatalf("workload %q not in the program", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, err := benchmark(tiny(p), 7, 300*time.Millisecond, trace, t.TempDir(), devnull)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", p.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", p.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", p.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", p.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", p.name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", p.name, m.Name, got.Value)
				}
			}
		}
	}
}

// gateFixture builds a tiny commit_storm cluster and pushes one round of
// traffic through it.
func gateFixture(t *testing.T) *run {
	t.Helper()
	p := tiny(workloads[1])
	r := &run{p: p, seed: 3, root: t.TempDir()}
	rng := rand.New(rand.NewPCG(3, 4))
	pairs := genPairs(rng, p.pairs)
	r.m = newIMIX(rng)
	r.tr = newTracer(false)
	r.g.leap = 2 * p.k
	c, err := newCluster(p, filepath.Join(r.root, "c"), pairs, rng.Perm(p.pairs), r.tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.close)
	r.c = c
	for i := range r.ws {
		r.ws[i] = newWorker(c, r.m, i, uint64(i))
	}
	c.rec.nextPhase()
	if err := r.trafficRounds(3, false); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReplayInjectionTripsGate replays recorded ciphertexts into a receiver
// that restarted without the paper's leap (a fresh medium with the same
// keys), and delivers one packet twice into the benchmark's own delivery
// check: both must be reported as violations.
func TestReplayInjectionTripsGate(t *testing.T) {
	r := gateFixture(t)
	r.g.replay("honest", r.c.primary.gw, r.c.rec, allPhases)
	if len(r.g.violations) != 0 {
		t.Fatalf("honest replay gate reported %v", r.g.violations)
	}

	// A receiver that lost its window and restarted at 0 re-accepts history.
	fresh, err := newCluster(r.p, filepath.Join(r.root, "fresh"), r.c.pairs, r.c.order, r.tr)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.close()
	r.g.replay("forgetful receiver", fresh.primary.gw, r.c.rec, allPhases)
	if r.g.replayAccepted == 0 || len(r.g.violations) == 0 {
		t.Fatal("replay into a forgetful receiver did not trip the gate")
	}

	// The same packet delivered twice is a replay acceptance too.
	w := r.ws[0]
	s, err := w.seal(r.c.peer.gw, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, len(w.payload))
	copy(payload, w.payload[:r.m.size(s.idx)])
	payload = payload[:r.m.size(s.idx)]
	w.delivered(s, payload, now())
	w.delivered(s, payload, now())
	if len(w.bad) != 1 || !strings.Contains(w.bad[0], "delivered twice") {
		t.Fatalf("duplicate delivery not caught: %v", w.bad)
	}
}

// TestCounterRegressionTripsGate crashes and wakes the primary in place and
// sends through untilAllDeliver, the path that checks recovered counters
// after every takeover and cold restart. With the acknowledged values read
// before the crash it reports nothing; with one SA's acknowledgement raised
// far above anything its medium holds (an acknowledged SAVE the medium
// lost) it reports exactly that SA. The canary gate is tripped the same
// way, and an honest crash of the whole peer passes the sender checks.
func TestCounterRegressionTripsGate(t *testing.T) {
	r := gateFixture(t)
	gw := r.c.primary.gw
	crash := func(acked []uint64, where string) {
		t.Helper()
		gw.ResetAll()
		if err := gw.WakeAll(); err != nil {
			t.Fatal(err)
		}
		if err := r.untilAllDeliver(gw, acked, where, false); err != nil {
			t.Fatal(err)
		}
	}
	acked, err := r.ackedInbound(gw)
	if err != nil {
		t.Fatal(err)
	}
	crash(acked, "honest")
	if len(r.g.violations) != 0 {
		t.Fatalf("honest recovery reported %v", r.g.violations)
	}

	if acked, err = r.ackedInbound(gw); err != nil {
		t.Fatal(err)
	}
	claimed := slices.Clone(acked)
	claimed[5] += 1 << 20
	crash(claimed, "injected")
	if len(r.g.violations) != 1 || !strings.HasPrefix(r.g.violations[0], "injected: inbound 5: recovered counter") {
		t.Fatalf("injected regression reported %v", r.g.violations)
	}
	r.g.violations = nil

	pace := make(chan struct{}, 3)
	for range cap(pace) {
		pace <- struct{}{}
	}
	close(pace)
	if err := r.canary(now()+time.Minute, pace); err != nil {
		t.Fatal(err)
	}
	if r.canaryAcked == 0 {
		t.Fatal("no canary SAVE acknowledged")
	}
	r.canaryGate("honest", r.c.primary.lanes, r.canaryAcked)
	r.canaryGate("injected", r.c.primary.lanes, r.canaryAcked+1)
	if len(r.g.violations) != 1 || !strings.HasPrefix(r.g.violations[0], "injected: canary") {
		t.Fatalf("canary gate reported %v", r.g.violations)
	}
	r.g.violations = nil

	if err := r.senderCrash(); err != nil {
		t.Fatal(err)
	}
	if len(r.g.violations) != 0 {
		t.Fatalf("honest sender crash reported %v", r.g.violations)
	}
}
