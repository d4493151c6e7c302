package ipsec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"antireplay/internal/core"
	"antireplay/internal/store"
)

// batchGateway builds a gateway over a fresh journal with the given config;
// the journal is closed by test cleanup after the gateway.
func batchGateway(t *testing.T, cfg GatewayConfig) *Gateway {
	t.Helper()
	j, err := store.OpenLanes(filepath.Join(t.TempDir(), "gw"), store.LanesCount(1))
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	cfg.Journal = j
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// seededSender builds a sender whose durable counter already holds seed, so
// after reset+wake it resumes at seed+2K — the way a long-lived SA reaches
// the top of the sequence space without 2^32 Seal calls.
func seededSender(t *testing.T, k, seed uint64) *core.Sender {
	t.Helper()
	var m store.Mem
	if err := m.Save(seed); err != nil {
		t.Fatal(err)
	}
	snd, err := core.NewSender(core.SenderConfig{K: k, Store: &m})
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	snd.Reset()
	snd.Wake()
	return snd
}

// TestSealSeqExhausted is the wrap regression: a non-ESN SA seeded near
// 2^32 must seal every number up to 0xFFFFFFFF and then hard-fail with
// ErrSeqExhausted instead of truncating seq64 and reusing wire sequence
// numbers (RFC 4303 forbids the cycle).
func TestSealSeqExhausted(t *testing.T) {
	const k = 10
	snd := seededSender(t, k, math.MaxUint32-2*k-5) // resumes at 2^32 - 6
	out, err := NewOutboundSA(0x5EED, testKeys(false), snd, false, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]bool)
	sealed := 0
	for i := 0; i < 50; i++ {
		wire, err := out.Seal([]byte("p"))
		if err != nil {
			if !errors.Is(err, ErrSeqExhausted) {
				t.Fatalf("Seal %d: %v, want ErrSeqExhausted", i, err)
			}
			break
		}
		sealed++
		lo, _ := ParseSeqLo(wire)
		if seen[lo] {
			t.Fatalf("wire sequence %#x reused", lo)
		}
		seen[lo] = true
	}
	if sealed == 0 || sealed >= 50 {
		t.Fatalf("sealed %d packets, want the boundary inside (0, 50)", sealed)
	}
	// The SA stays dead: every further Seal (and SealBatch) fails.
	if _, err := out.Seal([]byte("p")); !errors.Is(err, ErrSeqExhausted) {
		t.Errorf("Seal after exhaustion = %v, want ErrSeqExhausted", err)
	}
	if _, err := out.SealBatch([][]byte{[]byte("p")}); !errors.Is(err, ErrSeqExhausted) {
		t.Errorf("SealBatch after exhaustion = %v, want ErrSeqExhausted", err)
	}
	// An ESN SA over the same region sails through: the wire half may wrap
	// because the authenticated 64-bit number does not.
	sndESN := seededSender(t, k, math.MaxUint32-2*k-5)
	outESN, err := NewOutboundSA(0x5EEE, testKeys(false), sndESN, true, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := outESN.Seal([]byte("p")); err != nil {
			t.Fatalf("ESN Seal %d across 2^32: %v", i, err)
		}
	}
}

// TestSealConcurrentHardBytes is the lifetime TOCTOU regression: N
// concurrent Seals against a nearly-exhausted HardBytes budget must not all
// pass the stale check. At most one packet may cross the boundary.
func TestSealConcurrentHardBytes(t *testing.T) {
	const (
		goroutines = 8
		perG       = 200
		payload    = 10
		wireLen    = payload + Overhead
	)
	hard := uint64(50 * wireLen) // far fewer than goroutines*perG packets
	snd, _ := newSenderT(t, 1<<20)
	out, err := NewOutboundSA(1, testKeys(false), snd, false, Lifetime{HardBytes: hard}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ok, expired atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, err := out.Seal(make([]byte, payload))
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrHardExpired):
					expired.Add(1)
				default:
					t.Errorf("Seal: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	gotBytes, gotPackets := out.Counters()
	if gotBytes > hard+wireLen-1 {
		t.Errorf("bytes = %d overshot HardBytes = %d by more than one packet", gotBytes, hard)
	}
	if gotPackets != ok.Load() {
		t.Errorf("packets = %d, want %d successful seals", gotPackets, ok.Load())
	}
	if expired.Load() == 0 {
		t.Error("no Seal observed ErrHardExpired")
	}
	if out.State() != LifetimeHard {
		t.Errorf("State = %v at exhausted budget, want hard", out.State())
	}
}

// TestSealBatchRoundTrip seals a burst with SealBatch and verifies it with
// VerifyBatch, checking positional results and payload integrity.
func TestSealBatchRoundTrip(t *testing.T) {
	out, in := newPair(t, true, false)
	payloads := make([][]byte, 32)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("batch payload %02d", i))
	}
	wires, err := out.SealBatch(payloads)
	if err != nil {
		t.Fatalf("SealBatch: %v", err)
	}
	if len(wires) != len(payloads) {
		t.Fatalf("sealed %d of %d", len(wires), len(payloads))
	}
	results := in.VerifyBatch(wires)
	for j, res := range results {
		if !res.Delivered() {
			t.Fatalf("result %d: verdict=%v err=%v", j, res.Verdict, res.Err)
		}
		if !bytes.Equal(res.Payload, payloads[j]) {
			t.Fatalf("result %d: payload %q, want %q", j, res.Payload, payloads[j])
		}
	}
	// Replaying the whole batch yields only discards, counted as replays.
	for j, res := range in.VerifyBatch(wires) {
		if res.Err != nil || res.Verdict.Delivered() {
			t.Fatalf("replayed result %d delivered: verdict=%v err=%v", j, res.Verdict, res.Err)
		}
	}
	_, packets, _, replays := in.Counters()
	if packets != 64 || replays != 32 {
		t.Errorf("counters: packets=%d replays=%d, want 64/32", packets, replays)
	}
	bo, po := out.Counters()
	if po != 32 {
		t.Errorf("outbound packets = %d, want 32", po)
	}
	var want uint64
	for _, p := range payloads {
		want += uint64(len(p)) + Overhead
	}
	if bo != want {
		t.Errorf("outbound bytes = %d, want %d", bo, want)
	}
}

// TestSealBatchHorizonTruncation: under StrictHorizon with saves stuck, a
// burst is cut at the durable horizon with core.ErrSaveLag, and the counters
// roll back to the packets actually sealed.
func TestSealBatchHorizonTruncation(t *testing.T) {
	var m store.Mem
	blocked := &blockedSaver{}
	snd, err := core.NewSender(core.SenderConfig{K: 10, Store: &m, Saver: blocked, StrictHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewOutboundSA(2, testKeys(false), snd, false, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, 100)
	for i := range payloads {
		payloads[i] = []byte("x")
	}
	wires, err := out.SealBatch(payloads)
	if !errors.Is(err, core.ErrSaveLag) {
		t.Fatalf("SealBatch err = %v, want ErrSaveLag", err)
	}
	if len(wires) != 20 { // horizon = committed(1) + 2K(20), seq starts at 1
		t.Fatalf("sealed %d, want 20 (horizon truncation)", len(wires))
	}
	b, p := out.Counters()
	if p != 20 || b != 20*(1+Overhead) {
		t.Errorf("counters after truncation: bytes=%d packets=%d, want %d/20", b, p, 20*(1+Overhead))
	}
}

// blockedSaver never completes a save; it pins the durable horizon.
type blockedSaver struct{}

func (blockedSaver) StartSave(v uint64, done func(error)) {}

// TestGatewayBatchRoundTrip drives SealBatch/VerifyBatch through a Gateway
// with several SAs, interleaving SPIs and invalid packets in one burst.
func TestGatewayBatchRoundTrip(t *testing.T) {
	g := batchGateway(t, GatewayConfig{K: 25, W: 64})
	const nSAs = 3
	for i := 0; i < nSAs; i++ {
		spi := uint32(0x6000 + i)
		if _, err := g.AddOutbound(spi, testKeys(true), gwSelector(i)); err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
		if _, err := g.AddInbound(spi, testKeys(true)); err != nil {
			t.Fatalf("AddInbound: %v", err)
		}
	}
	// Seal one burst per SA, then interleave all bursts into one big batch.
	var wires [][]byte
	var wantPayload [][]byte
	for p := 0; p < 8; p++ {
		for i := 0; i < nSAs; i++ {
			payload := []byte(fmt.Sprintf("sa%d pkt%d", i, p))
			src, dst := gwAddr(i)
			burst, err := g.SealBatch(src, dst, [][]byte{payload})
			if err != nil {
				t.Fatalf("SealBatch sa%d: %v", i, err)
			}
			wires = append(wires, burst[0])
			wantPayload = append(wantPayload, payload)
		}
	}
	// Splice in a packet for an unknown SPI and a short packet.
	unknown := append([]byte(nil), wires[0]...)
	unknown[3] ^= 0x77
	wires = append(wires, unknown, []byte("tiny"))
	wantPayload = append(wantPayload, nil, nil)

	results := g.VerifyBatch(wires)
	if len(results) != len(wires) {
		t.Fatalf("got %d results for %d wires", len(results), len(wires))
	}
	for j, res := range results[:len(results)-2] {
		if !res.Delivered() {
			t.Fatalf("result %d: verdict=%v err=%v", j, res.Verdict, res.Err)
		}
		if !bytes.Equal(res.Payload, wantPayload[j]) {
			t.Fatalf("result %d: payload %q, want %q", j, res.Payload, wantPayload[j])
		}
	}
	if err := results[len(results)-2].Err; !errors.Is(err, ErrUnknownSPI) {
		t.Errorf("unknown-SPI result err = %v, want ErrUnknownSPI", err)
	}
	if err := results[len(results)-1].Err; !errors.Is(err, ErrShortPacket) {
		t.Errorf("short-packet result err = %v, want ErrShortPacket", err)
	}
}

// TestGatewayBatchConcurrent stress-tests the batched gateway datapath
// under -race: concurrent sealers and verifiers over multiple SAs, with
// exactly-once delivery across the whole run.
func TestGatewayBatchConcurrent(t *testing.T) {
	g := batchGateway(t, GatewayConfig{K: 50, W: 1024, NoStrictHorizon: true})
	const (
		nSAs    = 4
		bursts  = 40
		perB    = 16
		senders = 4
	)
	for i := 0; i < nSAs; i++ {
		spi := uint32(0x7000 + i)
		if _, err := g.AddOutbound(spi, testKeys(false), gwSelector(i)); err != nil {
			t.Fatalf("AddOutbound: %v", err)
		}
		if _, err := g.AddInbound(spi, testKeys(false)); err != nil {
			t.Fatalf("AddInbound: %v", err)
		}
	}
	var delivered sync.Map // payload string -> struct{}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for b := 0; b < bursts; b++ {
				sa := (s + b) % nSAs
				payloads := make([][]byte, perB)
				for p := range payloads {
					payloads[p] = []byte(fmt.Sprintf("s%d b%d p%d", s, b, p))
				}
				src, dst := gwAddr(sa)
				wires, err := g.SealBatch(src, dst, payloads)
				if err != nil {
					t.Errorf("SealBatch: %v", err)
					return
				}
				// Verify the burst twice concurrently: every payload must be
				// delivered exactly once across both verifications.
				var inner sync.WaitGroup
				for v := 0; v < 2; v++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						for _, res := range g.VerifyBatch(wires) {
							if res.Err != nil {
								t.Errorf("VerifyBatch: %v", res.Err)
								return
							}
							if res.Delivered() {
								if _, dup := delivered.LoadOrStore(string(res.Payload), struct{}{}); dup {
									t.Errorf("payload %q delivered twice", res.Payload)
									return
								}
							}
						}
					}()
				}
				inner.Wait()
			}
		}(s)
	}
	wg.Wait()
	count := 0
	delivered.Range(func(_, _ any) bool { count++; return true })
	if want := senders * bursts * perB; count != want {
		t.Errorf("delivered %d unique payloads, want %d", count, want)
	}
}

// TestOpenConcurrentESNBoundary crosses the 2^32 subspace boundary with
// concurrent Opens under -race: the single-snapshot inference plus
// re-inference retry must deliver every packet exactly once even when a
// racing Open moves the edge mid-verification.
func TestOpenConcurrentESNBoundary(t *testing.T) {
	const k = 25
	base := uint64(1)<<32 - 200
	var sm store.Mem
	if err := sm.Save(base); err != nil {
		t.Fatal(err)
	}
	snd, err := core.NewSender(core.SenderConfig{K: k, Store: &sm})
	if err != nil {
		t.Fatal(err)
	}
	snd.Reset()
	snd.Wake()

	var rm store.Mem
	if err := rm.Save(base - k); err != nil {
		t.Fatal(err)
	}
	rcv, err := core.NewReceiver(core.ReceiverConfig{K: k, Store: &rm, W: 1024, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	rcv.Reset()
	rcv.Wake()

	out, err := NewOutboundSA(9, testKeys(true), snd, true, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInboundSA(9, testKeys(true), rcv, true, Lifetime{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const total = 900 // crosses 2^32; stays within W so skewed goroutines never go stale
	wires := make([][]byte, total)
	for i := range wires {
		w, err := out.Seal([]byte{byte(i), byte(i >> 8)})
		if err != nil {
			t.Fatalf("Seal %d: %v", i, err)
		}
		wires[i] = w
	}
	const goroutines = 8
	var delivered sync.Map
	var wg sync.WaitGroup
	for gor := 0; gor < goroutines; gor++ {
		wg.Add(1)
		go func(gor int) {
			defer wg.Done()
			// Each goroutine walks the window-sized stream at an offset, so
			// edges race exactly around the subspace boundary.
			for i := gor; i < total; i += goroutines {
				payload, v, err := in.Open(wires[i])
				if err != nil {
					t.Errorf("Open %d: %v", i, err)
					return
				}
				if v.Delivered() {
					key := [2]byte{payload[0], payload[1]}
					if _, dup := delivered.LoadOrStore(key, struct{}{}); dup {
						t.Errorf("packet %d delivered twice", i)
						return
					}
				}
			}
		}(gor)
	}
	wg.Wait()
	count := 0
	delivered.Range(func(_, _ any) bool { count++; return true })
	if count != total {
		t.Errorf("delivered %d of %d across the boundary", count, total)
	}
	if in.Receiver().Edge() <= 1<<32 {
		t.Errorf("edge %#x did not cross 2^32", in.Receiver().Edge())
	}
}
