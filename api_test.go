package antireplay_test

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"antireplay"
)

func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// waitUp polls until the endpoint reports StateUp (the post-wake SAVE runs
// on a background goroutine under a SaverPool).
func waitUp(t *testing.T, state func() antireplay.State, wakeErr func() error) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if state() == antireplay.StateUp {
			return
		}
		if err := wakeErr(); err != nil {
			t.Fatalf("wake failed: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("endpoint did not come up (state %v)", state())
}

func TestFileSenderReceiverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snd, ssaver, err := antireplay.NewFileSender(filepath.Join(dir, "tx.seq"), 25)
	if err != nil {
		t.Fatal(err)
	}
	defer ssaver.Close()
	rcv, rsaver, err := antireplay.NewFileReceiver(filepath.Join(dir, "rx.seq"), 25, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer rsaver.Close()

	for i := 0; i < 100; i++ {
		seq, err := snd.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if v := rcv.Admit(seq); !v.Delivered() {
			t.Fatalf("Admit(%d) = %v", seq, v)
		}
	}
	if got := rcv.Stats().Delivered; got != 100 {
		t.Errorf("delivered = %d, want 100", got)
	}
}

func TestFileEndpointsSurviveRestart(t *testing.T) {
	// Full process-restart simulation: new Sender/Receiver values over the
	// same files, as a rebooted host would create.
	dir := t.TempDir()
	txPath := filepath.Join(dir, "tx.seq")
	rxPath := filepath.Join(dir, "rx.seq")

	snd, ssaver, err := antireplay.NewFileSender(txPath, 10)
	if err != nil {
		t.Fatal(err)
	}
	rcv, rsaver, err := antireplay.NewFileReceiver(rxPath, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	var history []uint64
	for i := 0; i < 50; i++ {
		seq, err := snd.Next()
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, seq)
		rcv.Admit(seq)
	}
	ssaver.Close() // flush background saves, then "crash" both processes
	rsaver.Close()

	snd2, ssaver2, err := antireplay.NewFileSender(txPath, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer ssaver2.Close()
	rcv2, rsaver2, err := antireplay.NewFileReceiver(rxPath, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer rsaver2.Close()

	// The fresh values must go through the reset/wake protocol to resume.
	snd2.Reset()
	snd2.Wake()
	rcv2.Reset()
	rcv2.Wake()
	waitUp(t, snd2.State, snd2.LastWakeError)
	waitUp(t, rcv2.State, rcv2.LastWakeError)

	// No replayed old message is accepted by the revived receiver.
	for _, seq := range history {
		if v := rcv2.Admit(seq); v.Delivered() {
			t.Fatalf("SAFETY: replay of %d delivered after restart", seq)
		}
	}
	// The revived sender never reuses a number.
	seq, err := snd2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if seq <= history[len(history)-1] {
		t.Fatalf("SAFETY: resumed seq %d not above pre-crash %d", seq, history[len(history)-1])
	}
}

// TestLiveGoroutinePipeline runs sender and receiver on real goroutines
// connected by a channel, with a concurrent reset/wake of the receiver
// mid-stream — the "goroutines as protocol nodes" execution mode.
func TestLiveGoroutinePipeline(t *testing.T) {
	dir := t.TempDir()
	snd, ssaver, err := antireplay.NewFileSender(filepath.Join(dir, "tx.seq"), 25)
	if err != nil {
		t.Fatal(err)
	}
	defer ssaver.Close()
	rcv, rsaver, err := antireplay.NewFileReceiver(filepath.Join(dir, "rx.seq"), 25, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer rsaver.Close()

	const total = 5000
	wire := make(chan uint64, 64)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // sender node
		defer wg.Done()
		defer close(wire)
		sent := 0
		for sent < total {
			seq, err := snd.Next()
			if errors.Is(err, antireplay.ErrDown) || errors.Is(err, antireplay.ErrWaking) {
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				t.Errorf("Next: %v", err)
				return
			}
			wire <- seq
			sent++
		}
	}()

	var mu sync.Mutex
	delivered := make(map[uint64]int)
	wg.Add(1)
	go func() { // receiver node
		defer wg.Done()
		for seq := range wire {
			v := rcv.Admit(seq)
			if v.Delivered() {
				mu.Lock()
				delivered[seq]++
				mu.Unlock()
			}
		}
	}()

	// Chaos: reset the receiver twice mid-stream.
	for i := 0; i < 2; i++ {
		time.Sleep(20 * time.Millisecond)
		rcv.Reset()
		time.Sleep(5 * time.Millisecond)
		rcv.Wake()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	dups := 0
	for seq, n := range delivered {
		if n > 1 {
			t.Errorf("SAFETY: seq %d delivered %d times", seq, n)
			dups++
		}
	}
	if len(delivered) == 0 {
		t.Fatal("nothing delivered")
	}
	// Each reset may sacrifice at most 2K fresh + what arrived while down.
	t.Logf("delivered %d of %d across two receiver resets (dups=%d)",
		len(delivered), total, dups)
}

func TestPublicESPPath(t *testing.T) {
	// IKE-negotiated keys driving ESP through the public API.
	res, err := antireplay.EstablishSA(
		antireplay.IKEConfig{PSK: []byte("psk"), Rand: testRand(1), ID: "east"},
		antireplay.IKEConfig{PSK: []byte("psk"), Rand: testRand(2), ID: "west"},
	)
	if err != nil {
		t.Fatal(err)
	}
	var txStore, rxStore antireplay.MemStore
	snd, err := antireplay.NewSender(antireplay.SenderConfig{K: 25, Store: &txStore})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := antireplay.NewReceiver(antireplay.ReceiverConfig{K: 25, W: 64, Store: &rxStore})
	if err != nil {
		t.Fatal(err)
	}
	out, err := antireplay.NewOutboundSA(res.Keys.SPIInitToResp, res.Keys.InitToResp, snd, false, antireplay.Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := antireplay.NewInboundSA(res.Keys.SPIInitToResp, res.Keys.InitToResp, rcv, true, antireplay.Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	wire, err := out.Seal([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	payload, v, err := in.Open(wire)
	if err != nil || !v.Delivered() || string(payload) != "hello" {
		t.Fatalf("Open = %q %v %v", payload, v, err)
	}
	// Replay rejected.
	if _, v, _ := in.Open(wire); v.Delivered() {
		t.Fatal("SAFETY: replay delivered")
	}
}

func TestPublicSimTypes(t *testing.T) {
	e := antireplay.NewEngine(1)
	got := 0
	link := antireplay.NewLink[int](e, antireplay.LinkConfig{Delay: time.Millisecond}, func(int) { got++ })
	link.Send(1)
	link.Send(2)
	e.Run()
	if got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}

	var st antireplay.MemStore
	sv := antireplay.NewSimSaver(e, &st, time.Millisecond)
	sv.StartSave(9, nil)
	e.Run()
	if v, ok := st.Peek(); !ok || v != 9 {
		t.Errorf("Peek = %d %v", v, ok)
	}
}

func TestPublicDPD(t *testing.T) {
	e := antireplay.NewEngine(1)
	probes := 0
	mon, err := antireplay.NewDPDMonitor(antireplay.DPDConfig{
		Engine:      e,
		IdleTimeout: time.Second,
		AckTimeout:  time.Second,
		MaxProbes:   2,
		HoldTime:    time.Minute,
		SendProbe:   func(uint64) { probes++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(10 * time.Second)
	if mon.State() != antireplay.PeerDead {
		t.Errorf("state = %v, want dead", mon.State())
	}
	if probes != 2 {
		t.Errorf("probes = %d, want 2", probes)
	}
	kind, _, ok := antireplay.ParseDPDPayload(antireplay.ResyncPayload())
	if !ok || kind != "resync" {
		t.Errorf("resync parse = %q %v", kind, ok)
	}
}

func TestLeapHelper(t *testing.T) {
	if got := antireplay.Leap(25, antireplay.DefaultLeapFactor); got != 50 {
		t.Errorf("Leap = %d, want 50", got)
	}
}

func TestWindowHelpers(t *testing.T) {
	for name, w := range map[string]antireplay.Window{
		"bitmap": antireplay.NewBitmapWindow(64),
		"paper":  antireplay.NewPaperWindow(64),
	} {
		if d := w.Admit(5); !d.Deliver() {
			t.Errorf("%s: Admit(5) = %v", name, d)
		}
		if d := w.Admit(5); d.Deliver() {
			t.Errorf("%s: duplicate delivered", name)
		}
	}
	if got := antireplay.InferESN(1<<33, 5, 64); got != 2<<32+5 {
		t.Errorf("InferESN = %#x", got)
	}
}
