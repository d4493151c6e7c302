package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"antireplay/internal/adversary"
	"antireplay/internal/ipsec"
	"antireplay/internal/store"
	"antireplay/internal/storefault"
)

// TestScenarioCombinedFaults runs the fault combination no table row
// does, in one run: the primary's medium sits on a fault injector and
// loses one lane to write EIO (the single_lane_eio fault), the primary
// then crashes, and a BlackoutFlood replays the recorded traffic into the
// takeover wake window. The one checker must still pass.
func TestScenarioCombinedFaults(t *testing.T) {
	const (
		lanes   = 4
		tunnels = 8
		packets = 40
	)
	in := storefault.NewInjector(nil)
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
		p.Open(w) //nolint:errcheck // rejections are the flood's effect
	})
	flood := adversary.NewBlackoutFlood(adversary.BlackoutFloodConfig{MaxBurst: 256})
	if err := flood.Arm(adversary.Hooks{Gate: gate}); err != nil {
		t.Fatal(err)
	}
	p, err := NewGatewayPair(PairSetup{
		Scenario: "combined faults", Seed: 7, K: diskfaultK, W: 64, Lanes: lanes,
		Options:         []store.LanesOption{store.LanesWithoutSync()},
		ReceiverOptions: []store.LanesOption{store.LanesWithFS(in)},
		OnPromote:       func(epoch uint64) { flood.OnTakeover(epoch) },
		Path:            path,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < tunnels; i++ {
		if _, err := p.AddTunnel(uint32(0xE000+i), 0, ipsec.KeyMaterial{}, ipsec.KeyMaterial{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.StartStandby(); err != nil {
		t.Fatal(err)
	}
	phase := func(tag string) {
		t.Helper()
		for k := 0; k < packets; k++ {
			for i := 0; i < tunnels; i++ {
				if _, err := p.Send(i, []byte(fmt.Sprintf("%s-%d-%d", tag, i, k))); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
			}
		}
	}

	phase("clean")
	dead := p.Receiver().Journal().Cell(ipsec.InboundKey(0xE000)).Lane()
	in.Arm(storefault.Fault{Op: storefault.OpWrite, Path: laneFile(p, dead), Err: syscall.EIO})
	phase("eio")
	if q := p.Receiver().Journal().Quarantined(); len(q) != 1 || q[0] != dead {
		t.Fatalf("quarantined lanes %v, want [%d]", q, dead)
	}
	if p.HorizonStalls.Load() == 0 {
		t.Fatal("the dead lane's SA never stalled at its horizon")
	}

	flood.Activate()
	p.Crash()
	buffering = true
	if _, err := p.Takeover(); err != nil {
		t.Fatalf("takeover over a quarantined lane: %v", err)
	}
	buffering = false
	for _, w := range pending {
		p.Open(w) //nolint:errcheck // rejections are the flood's effect
	}
	flood.Deactivate()
	if st := flood.Stats(); st.Flooded == 0 {
		t.Fatalf("flood never fired: %+v", st)
	}

	phase("promoted")
	if err := p.ReplayAll(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	w, rejects := p.lastWindow()
	t.Logf("delivered %d, stalls %d, wake window %d (lag %d), false rejects %d, flooded %d",
		p.Delivered.Load(), p.HorizonStalls.Load(), w.bound, w.lag, rejects, flood.Stats().Flooded)
}

// TestCheckReportsViolations pins the checker itself: each guarantee's
// breach fails Check with the scenario and the seed in the error.
func TestCheckReportsViolations(t *testing.T) {
	run := func(t *testing.T, breach func(p *GatewayPair, w []byte), want string) {
		t.Helper()
		p, err := NewGatewayPair(PairSetup{Scenario: "checker", Seed: 42, K: 8,
			Options: []store.LanesOption{store.LanesWithoutSync()}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if _, err := p.AddTunnel(0xF000, 0xF001, ipsec.KeyMaterial{}, ipsec.KeyMaterial{}); err != nil {
			t.Fatal(err)
		}
		var w []byte
		for n := 0; n < 20; n++ {
			if w, err = p.Seal(0, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if ok, err := p.Deliver(w); err != nil || !ok {
				t.Fatalf("clean delivery %d: ok=%v err=%v", n, ok, err)
			}
		}
		if err := p.Check(); err != nil {
			t.Fatalf("clean run: %v", err)
		}
		breach(p, w)
		err = p.Check()
		if err == nil || !strings.Contains(err.Error(), "scenario checker (seed 42)") ||
			!strings.Contains(err.Error(), want) {
			t.Fatalf("Check = %v, want a %q failure naming scenario and seed", err, want)
		}
	}
	t.Run("replay", func(t *testing.T) {
		run(t, func(p *GatewayPair, w []byte) { p.settle(w, true, true) }, "replay acceptances")
	})
	t.Run("regression", func(t *testing.T) {
		run(t, func(p *GatewayPair, _ []byte) { p.floors["out 0xf000"] = 1 << 40 }, "regressed")
	})
	t.Run("steady_state_reject", func(t *testing.T) {
		run(t, func(p *GatewayPair, _ []byte) { p.Sacrificed.Add(1) }, "steady state 0: 1 false rejects")
	})
	t.Run("wake_window", func(t *testing.T) {
		run(t, func(p *GatewayPair, _ []byte) {
			p.Crash()
			if err := p.Wake(); err != nil {
				t.Fatal(err)
			}
			w, _ := p.lastWindow()
			p.Sacrificed.Add(w.bound + 1)
		}, "exceed the wake window")
	})
}

// TestSeedExactTables runs the tables that do not depend on goroutine
// scheduling twice at one seed and asserts identical rows: the paper's
// figures on the simulation clock, and the campaign rows on tunnel.Pair's
// synchronous in-memory stores.
func TestSeedExactTables(t *testing.T) {
	runs := map[string]func() (*Table, error){
		"fig1": func() (*Table, error) { return Fig1SenderReset(DefaultFig1Config()) },
		"fig2": func() (*Table, error) { return Fig2ReceiverReset(DefaultFig2Config()) },
		"campaigns/window_edge": func() (*Table, error) {
			cfg := DefaultCampaignsConfig()
			cfg.Packets = 240
			return CampaignsOnly(cfg, "window_edge")
		},
		"campaigns/save_storm": func() (*Table, error) {
			cfg := DefaultCampaignsConfig()
			cfg.Packets = 240
			return CampaignsOnly(cfg, "save_storm")
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			a, err := run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Rows) == 0 || !reflect.DeepEqual(a.Rows, b.Rows) {
				t.Fatalf("rows differ between two runs at one seed:\n%v\n%v", a.Rows, b.Rows)
			}
		})
	}
}
