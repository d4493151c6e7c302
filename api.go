package antireplay

import (
	"fmt"
	"time"

	"antireplay/internal/core"
	"antireplay/internal/seqwin"
	"antireplay/internal/store"
)

// Core protocol types, re-exported from the implementation.
type (
	// Sender is the reset-resilient sequence-number source (process p).
	Sender = core.Sender
	// SenderConfig configures a Sender.
	SenderConfig = core.SenderConfig
	// SenderStats snapshots sender counters.
	SenderStats = core.SenderStats
	// Receiver is the reset-resilient anti-replay window (process q).
	Receiver = core.Receiver
	// ReceiverConfig configures a Receiver.
	ReceiverConfig = core.ReceiverConfig
	// ReceiverStats snapshots receiver counters.
	ReceiverStats = core.ReceiverStats
	// Verdict is the receiver's decision for one message.
	Verdict = core.Verdict
	// State is an endpoint's lifecycle state (up / down / waking).
	State = core.State
	// BackgroundSaver executes asynchronous SAVEs.
	BackgroundSaver = core.BackgroundSaver
	// SyncSaver is a BackgroundSaver that saves synchronously.
	SyncSaver = core.SyncSaver
	// Window is the anti-replay window abstraction.
	Window = seqwin.Window
	// WindowDecision is a window's verdict for a sequence number.
	WindowDecision = seqwin.Decision
)

// Verdict values.
const (
	VerdictNew       = core.VerdictNew
	VerdictInWindow  = core.VerdictInWindow
	VerdictDuplicate = core.VerdictDuplicate
	VerdictStale     = core.VerdictStale
	VerdictBuffered  = core.VerdictBuffered
	VerdictOverflow  = core.VerdictOverflow
	VerdictDown      = core.VerdictDown
	VerdictHorizon   = core.VerdictHorizon
)

// Endpoint states.
const (
	StateUp     = core.StateUp
	StateDown   = core.StateDown
	StateWaking = core.StateWaking
)

// DefaultLeapFactor is the paper's leap multiplier (leap = 2K).
const DefaultLeapFactor = core.DefaultLeapFactor

// Protocol errors.
var (
	// ErrDown reports an operation on a reset endpoint.
	ErrDown = core.ErrDown
	// ErrWaking reports a send during the post-wake SAVE.
	ErrWaking = core.ErrWaking
	// ErrNoSavedState reports a FETCH that found nothing.
	ErrNoSavedState = core.ErrNoSavedState
	// ErrSaveLag reports a send refused at the strict durable horizon while
	// a background save catches up; back off and retry.
	ErrSaveLag = core.ErrSaveLag
	// ErrConfig reports an invalid configuration.
	ErrConfig = core.ErrConfig
)

// NewSender validates cfg and returns a ready sender.
func NewSender(cfg SenderConfig) (*Sender, error) { return core.NewSender(cfg) }

// NewReceiver validates cfg and returns a ready receiver.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) { return core.NewReceiver(cfg) }

// Leap computes the wake-up leap ceil(factor*k); the paper proves factor 2
// is both sufficient and necessary.
func Leap(k uint64, factor float64) uint64 { return core.Leap(k, factor) }

// SizeK applies the paper's §4 sizing rule K = ceil(tSave/tSend): the SAVE
// interval must cover the messages that can flow during one SAVE, or the
// durable counter can lag by more than the 2K leap. Size K from the
// measured save latency of your Store and your peak message rate.
func SizeK(tSave, tSend time.Duration) uint64 { return core.SizeK(tSave, tSend) }

// NewBitmapWindow returns an RFC 6479-style anti-replay window of width w.
func NewBitmapWindow(w int) Window { return seqwin.NewBitmap(w) }

// NewAtomicWindow returns a concurrency-safe anti-replay window of width w
// (Linux-xfrm/WireGuard style: CAS edge advances, atomic bit-sets). Passing
// it — or setting ReceiverConfig.Concurrent — enables the Receiver's
// lock-minimizing admission fast path.
func NewAtomicWindow(w int) Window { return seqwin.NewAtomic(w) }

// NewPaperWindow returns the paper's boolean-array window of width w
// (identical behaviour, transliterated from the §2 specification).
func NewPaperWindow(w int) Window { return seqwin.NewBool(w) }

// InferESN reconstructs a 64-bit extended sequence number from a 32-bit
// wire value, RFC 4303 Appendix A style.
func InferESN(edge uint64, lo uint32, w int) uint64 { return seqwin.InferESN(edge, lo, w) }

// NewFileSender builds a resilient sender persisting to a file-backed store
// at path with background saves on a one-worker SaverPool. Close the
// returned pool when done to wait for in-flight saves.
func NewFileSender(path string, k uint64) (*Sender, *SaverPool, error) {
	st := store.NewFile(path)
	pool := store.NewSaverPool(1)
	snd, err := core.NewSender(core.SenderConfig{K: k, Store: st, Saver: pool.Saver(st)})
	if err != nil {
		pool.Close()
		return nil, nil, fmt.Errorf("antireplay: file sender: %w", err)
	}
	return snd, pool, nil
}

// NewFileReceiver builds a resilient receiver persisting to a file-backed
// store at path with background saves on a one-worker SaverPool and a
// window of width w.
func NewFileReceiver(path string, k uint64, w int) (*Receiver, *SaverPool, error) {
	st := store.NewFile(path)
	pool := store.NewSaverPool(1)
	rcv, err := core.NewReceiver(core.ReceiverConfig{K: k, W: w, Store: st, Saver: pool.Saver(st)})
	if err != nil {
		pool.Close()
		return nil, nil, fmt.Errorf("antireplay: file receiver: %w", err)
	}
	return rcv, pool, nil
}
