package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"antireplay/internal/seqwin"
	"antireplay/internal/stats"
	"antireplay/internal/store"
	"antireplay/internal/trace"
)

// Verdict is the receiver's outcome for one observed message.
type Verdict uint8

// Verdict values.
const (
	// VerdictNew delivers a message beyond the window's right edge.
	VerdictNew Verdict = iota + 1
	// VerdictInWindow delivers an unseen message inside the window.
	VerdictInWindow
	// VerdictDuplicate discards a message already marked in the window.
	VerdictDuplicate
	// VerdictStale discards a message below the window.
	VerdictStale
	// VerdictBuffered defers a message that arrived during the post-wake
	// SAVE; its final verdict is reported through the Drain callback.
	VerdictBuffered
	// VerdictOverflow discards a message because the post-wake buffer was
	// full.
	VerdictOverflow
	// VerdictDown discards a message that arrived while the machine was off.
	VerdictDown
	// VerdictHorizon discards a message whose sequence number lies at or
	// beyond the strict durable horizon (committed+leap): delivering it
	// before the in-flight save commits could let a later reset accept its
	// replay. Only produced with ReceiverConfig.StrictHorizon.
	VerdictHorizon
)

// Delivered reports whether the verdict delivers the message to the
// application.
func (v Verdict) Delivered() bool { return v == VerdictNew || v == VerdictInWindow }

// String returns the lower-case verdict name.
func (v Verdict) String() string {
	switch v {
	case VerdictNew:
		return "new"
	case VerdictInWindow:
		return "in-window"
	case VerdictDuplicate:
		return "duplicate"
	case VerdictStale:
		return "stale"
	case VerdictBuffered:
		return "buffered"
	case VerdictOverflow:
		return "overflow"
	case VerdictDown:
		return "down"
	case VerdictHorizon:
		return "horizon"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

func verdictOf(d seqwin.Decision) Verdict {
	// The first four Verdict values deliberately mirror the Decision values
	// (compile-time checked below), so the per-packet conversion is a cast.
	if d >= seqwin.DecisionNew && d <= seqwin.DecisionStale {
		return Verdict(d)
	}
	return VerdictStale
}

// The cast in verdictOf relies on this correspondence; each pair is pinned
// independently so no two misalignments can cancel out.
var (
	_ = [1]struct{}{}[VerdictNew-Verdict(seqwin.DecisionNew)]
	_ = [1]struct{}{}[VerdictInWindow-Verdict(seqwin.DecisionInWindow)]
	_ = [1]struct{}{}[VerdictDuplicate-Verdict(seqwin.DecisionDuplicate)]
	_ = [1]struct{}{}[VerdictStale-Verdict(seqwin.DecisionStale)]
)

// DefaultWakeBuffer is the default capacity of the post-wake message buffer.
const DefaultWakeBuffer = 1024

// ReceiverConfig configures a Receiver.
type ReceiverConfig struct {
	// K is the paper's Kq: a background SAVE of the window edge starts
	// whenever the edge has advanced K past the last saved value.
	// Required (>= 1) unless Baseline is set.
	K uint64
	// LeapFactor scales the post-wake leap; zero means the paper's 2.
	// Negative disables the leap (ablation only; unsafe).
	LeapFactor float64
	// W is the anti-replay window width used when Window is nil
	// (a seqwin.Bitmap is created, or a seqwin.Atomic with Concurrent).
	// Defaults to 64.
	W int
	// Window overrides the window implementation.
	Window seqwin.Window
	// Concurrent selects a seqwin.Atomic window when Window is nil, which
	// enables the lock-minimizing admission fast path: in-window and
	// in-order messages are admitted with atomic operations under a shared
	// read gate, falling back to the receiver mutex only for reset/wake
	// transitions, SAVE triggers, and strict-horizon discards. A
	// caller-provided Window enables the same fast path when it implements
	// seqwin.ConcurrentWindow.
	Concurrent bool
	// Store is the durable cell holding the saved edge. Required unless
	// Baseline is set.
	Store store.Store
	// Saver executes background SAVEs; nil means synchronous saves.
	Saver BackgroundSaver
	// Baseline selects the §2 protocol: no SAVE/FETCH; a wake-up restarts
	// with edge 0 and a cleared window (§3).
	Baseline bool
	// AblationSkipPostWakeSave resumes immediately after FETCH+leap without
	// waiting for the synchronous post-wake SAVE, dropping the paper's §4
	// "second consideration" protection. UNSAFE — a second reset before the
	// next save then re-accepts replayed traffic. For ablation experiments
	// only.
	AblationSkipPostWakeSave bool
	// StrictHorizon enforces the invariant "every delivered sequence
	// number < committed+leap" by discarding (VerdictHorizon) messages at
	// or beyond the durable horizon. This closes a gap in the paper's
	// receiver-side analysis: its Figure 2 bound assumes the window edge
	// advances at most Kq sequence numbers per save interval, which a
	// loss-induced jump violates — two resets around such a jump let the
	// paper's protocol deliver a message twice. With the guard the
	// no-duplicate-delivery theorem holds unconditionally, at the cost of
	// bounded drops while saves catch up to a jump.
	StrictHorizon bool
	// WakeBuffer caps the messages buffered during the post-wake SAVE;
	// zero means DefaultWakeBuffer.
	WakeBuffer int
	// Drain receives the deferred verdict of each buffered message after
	// the post-wake SAVE completes, in arrival order. Nil discards them
	// (they are still counted in Stats and Trace).
	Drain func(seq uint64, v Verdict)
	// Trace receives protocol events; nil discards them.
	Trace *trace.Collector
	// Name labels trace events (e.g. "q").
	Name string
	// Clock supplies trace timestamps; nil means zero timestamps.
	Clock func() time.Duration
}

func (c ReceiverConfig) leapFactor() float64 {
	if c.LeapFactor == 0 {
		return DefaultLeapFactor
	}
	return c.LeapFactor
}

// Validate reports configuration errors.
func (c ReceiverConfig) Validate() error {
	if c.W < 0 {
		return fmt.Errorf("%w: W must be >= 0", ErrConfig)
	}
	if c.WakeBuffer < 0 {
		return fmt.Errorf("%w: WakeBuffer must be >= 0", ErrConfig)
	}
	if c.Baseline {
		return nil
	}
	if c.K == 0 {
		return fmt.Errorf("%w: K must be >= 1", ErrConfig)
	}
	if c.Store == nil {
		return fmt.Errorf("%w: Store is required", ErrConfig)
	}
	return nil
}

// Receiver is the paper's process q: an anti-replay window with SAVE/FETCH
// persistence of the right edge. Safe for concurrent use.
//
// With ReceiverConfig.Concurrent the receiver admits messages on a
// wait-free fast path: the current seqwin.Atomic window is published
// through an atomic pointer (RCU-style), so an admit is one pointer load
// plus the window's own lock-free admission — no mutex, no read-write gate,
// no shared-cacheline counter. Lifecycle transitions unpublish the pointer
// (Reset) or install a freshly built window (Wake) under the mutex; an
// admit that raced a reset completes against the superseded window object,
// which is equivalent to the message having been admitted just before the
// crash — the post-wake window starts beyond the leap with every slot
// marked, so exactly-once delivery is preserved (the -race stress suites
// exercise exactly this interleaving). A caller-provided Window (even a
// ConcurrentWindow) is driven through the serialized slow path: the
// receiver cannot rebuild a foreign window on wake, so it cannot let
// stale fast-path admits race a Reinit.
//
// Locking discipline: r.state and r.win are mutated only under r.mu; the
// fast path never reads them — it consumes the published window pointer,
// which is non-nil only while the receiver is StateUp. Monotonic protocol
// counters shared with the fast path (lst, committed) are atomics written
// under r.mu or saveMu; delivered/discarded are sharded counters.
type Receiver struct {
	cfg     ReceiverConfig
	saver   BackgroundSaver
	now     nowFunc
	leap    uint64 // Leap(K, leapFactor), precomputed
	width   int    // window width (immutable)
	k       uint64 // cfg.K, flattened for the per-packet trigger check
	strict  bool   // cfg.StrictHorizon && !cfg.Baseline, flattened
	traceOn bool   // cfg.Trace != nil, flattened

	// fastWin publishes the current window to the admission fast path. It
	// is non-nil exactly while the receiver is StateUp with an owned
	// concurrent window; Reset stores nil, Wake installs a new window.
	fastWin atomic.Pointer[seqwin.Atomic]
	ownFast bool // the receiver owns (and may rebuild) its Atomic window

	mu        sync.Mutex
	win       seqwin.Window
	state     State
	gen       uint64
	wakeErr   error
	buffer    []uint64 // messages held during StateWaking
	harvested bool     // r.win's delivery tally already folded into delivered

	lst       atomic.Uint64 // last edge value handed to a SAVE (paper: lst)
	committed atomic.Uint64 // last edge value known durable

	saveMu  sync.Mutex // orders saver invocations; see startSave
	saveGen uint64     // mirrors gen for startSave's torn-save check

	// delivered/discarded share one Tallies block: both are bumped on the
	// admission path, and one 1 KiB block instead of two 1 KiB sharded
	// counters halves the per-receiver tally footprint at million-SA scale.
	tallies     stats.Tallies // lanes: tallyDelivered, tallyDiscarded
	savesStart  atomic.Uint64
	savesOK     uint64
	savesFailed uint64
	resets      uint64
	overflowed  uint64
}

// Lane indices into Receiver.tallies.
const (
	tallyDelivered = iota
	tallyDiscarded
)

// NewReceiver validates cfg and returns a ready receiver. For a resilient
// receiver whose store is empty, the initial edge (0) is saved synchronously
// — the paper's lst "initially 0".
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	win := cfg.Window
	if win == nil {
		w := cfg.W
		if w == 0 {
			w = 64
		}
		if cfg.Concurrent {
			win = seqwin.NewAtomic(w)
		} else {
			win = seqwin.NewBitmap(w)
		}
	}
	if cfg.WakeBuffer == 0 {
		cfg.WakeBuffer = DefaultWakeBuffer
	}
	r := &Receiver{
		cfg:     cfg,
		saver:   cfg.Saver,
		now:     clockOrZero(cfg.Clock),
		win:     win,
		width:   win.W(),
		leap:    Leap(cfg.K, cfg.leapFactor()),
		k:       cfg.K,
		strict:  cfg.StrictHorizon && !cfg.Baseline,
		traceOn: cfg.Trace != nil,
		state:   StateUp,
	}
	if cfg.Baseline {
		r.k = 0 // the fast path treats k == 0 as "no SAVE trigger"
	}
	if aw, ok := win.(*seqwin.Atomic); ok && cfg.Window == nil {
		// The receiver built this window itself, so it may replace it on
		// wake — the precondition for the RCU fast path.
		r.ownFast = true
		r.fastWin.Store(aw)
	}
	if !cfg.Baseline {
		if r.saver == nil {
			r.saver = SyncSaver{Store: cfg.Store}
		}
		if _, ok, err := cfg.Store.Fetch(); err != nil {
			return nil, fmt.Errorf("core: probing receiver store: %w", err)
		} else if !ok {
			if err := cfg.Store.Save(0); err != nil {
				return nil, fmt.Errorf("core: initializing receiver store: %w", err)
			}
		}
	}
	return r, nil
}

// Admit runs the paper's receive action for sequence number s: decide
// against the window, then start a background SAVE if the edge advanced K
// past the last saved value. While the machine is down the message is
// unobserved (VerdictDown); while waking it is buffered for the Drain
// callback (VerdictBuffered) or dropped if the buffer is full
// (VerdictOverflow).
//
// With ReceiverConfig.Concurrent the common case completes on the wait-free
// fast path — one atomic pointer load plus the window's own lock-free
// admission; see the type comment.
func (r *Receiver) Admit(s uint64) Verdict {
	if w := r.fastWin.Load(); w != nil {
		if v, ok := r.admitFast(w, s); ok {
			return v
		}
	}
	return r.admitSlow(s)
}

// startSave hands v to the background saver. All save bookkeeping that must
// be consistent with the invocation — lst, the saves-started counter, the
// trace event — happens here, atomically with the hand-off, because saves
// are triggered under r.mu but invoked after it is released:
//
//   - Updating lst at trigger time (the pre-concurrency design) lets the
//     next trigger wait another K admissions while the first save is still
//     un-invoked; with C concurrent admitters the edge can then outrun the
//     durable value by up to C*K — far beyond the 2K wake leap, breaking
//     exactly-once delivery (or, for a sender, no-reuse) across a reset.
//     Here lst means "largest value actually handed to the saver", so the
//     window between trigger and invocation suppresses nothing.
//   - Two triggers can reach this point out of order; deduplicating against
//     lst — "largest value actually handed to the saver" — drops any
//     invocation no fresher than one already handed over, which both
//     collapses the trigger herd into one write and keeps the medium
//     monotonic (an out-of-order stale write would regress it, and a reset
//     then wakes below delivered traffic). saveDone's gen-checked failure
//     rollback of lst reopens the dedup so a failed save's value can be
//     retried (e.g. a retransmission re-triggering the same
//     horizon-extension save).
//   - gen is the generation captured at trigger time. A reset advances
//     saveGen under this same lock, so a straggler from the old life is
//     dropped — the paper's "torn save" — instead of writing into the new
//     life's medium.
//
// force bypasses the dedup: the post-wake save must run even though the
// (volatile, possibly larger) lst of the previous life is still visible.
// done is not called for dropped or deduplicated invocations (their
// callbacks are stale or subsumed by the fresher save's).
func (r *Receiver) startSave(gen, v uint64, force bool, done func(v uint64, err error)) {
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	if gen != r.saveGen {
		return // a reset intervened; the write never reaches the medium
	}
	if !force && v <= r.lst.Load() {
		return // an at-least-as-fresh save is already on its way
	}
	r.lst.Store(v)
	r.savesStart.Add(1)
	r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindSaveStart, Node: r.cfg.Name, Seq: v})
	r.saver.StartSave(v, func(err error) { done(v, err) })
}

// admitFast decides s against the published concurrent window w, touching
// no lock at all. It reports ok=false when the message needs the slow
// path: s lies at or beyond the strict durable horizon. (Lifecycle is
// handled before the call: a non-nil published window means the receiver
// was StateUp when it was published; an admit racing a concurrent Reset
// completes against the superseded window, equivalent to arriving just
// before the crash.)
func (r *Receiver) admitFast(w *seqwin.Atomic, s uint64) (Verdict, bool) {
	if r.strict && s >= r.committed.Load()+r.leap {
		// committed only grows, so a stale read errs toward the slow path,
		// never toward delivering beyond the true horizon.
		return 0, false
	}
	d := w.Admit(s)
	v := verdictOf(d)
	if !d.Deliver() {
		// Deliveries are not counted here: the claim bit-flip inside the
		// window already recorded the event (seqwin.Atomic.Delivered), so
		// the fast path's delivery case costs no extra locked operation.
		r.tallies.AddSpread(s, tallyDiscarded, 1)
	}
	if r.traceOn {
		r.traceVerdict(s, v)
	}
	// k == 0 means baseline (no SAVE protocol); the racy lst read is
	// re-checked under the mutex in saveFromFastPath.
	if d == seqwin.DecisionNew && r.k != 0 && s >= r.k+r.lst.Load() {
		r.saveFromFastPath(s)
	}
	return v, true
}

// saveFromFastPath re-checks the SAVE trigger under the mutex and starts
// the background save. The fast path detects "edge advanced >= K" with a
// racy read of lst, so this slow step runs at most once per K admissions
// per concurrent admitter (startSave collapses the herd into one write).
func (r *Receiver) saveFromFastPath(edge uint64) {
	r.mu.Lock()
	if r.state != StateUp || edge < r.cfg.K+r.lst.Load() {
		r.mu.Unlock()
		return
	}
	if e := r.win.Edge(); e > edge {
		edge = e // a concurrent admit advanced further; save the larger edge
	}
	gen := r.gen
	r.mu.Unlock()

	r.startSave(gen, edge, false, func(v uint64, err error) { r.saveDone(gen, v, err) })
}

// admitSlow is the original mutex-serialized admission path; it also backs
// the fast path's fallback cases (down/waking/horizon).
func (r *Receiver) admitSlow(s uint64) Verdict {
	r.mu.Lock()
	switch r.state {
	case StateDown:
		r.mu.Unlock()
		r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindDiscardDown, Node: r.cfg.Name, Seq: s})
		return VerdictDown
	case StateWaking:
		if len(r.buffer) >= r.cfg.WakeBuffer {
			r.overflowed++
			r.mu.Unlock()
			r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindBufferOverflow, Node: r.cfg.Name, Seq: s})
			return VerdictOverflow
		}
		r.buffer = append(r.buffer, s)
		r.mu.Unlock()
		r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindBuffered, Node: r.cfg.Name, Seq: s})
		return VerdictBuffered
	}
	v, save := r.decideLocked(s)
	r.mu.Unlock()

	r.traceVerdict(s, v)
	save()
	return v
}

// decideLocked applies the window decision and prepares any triggered SAVE.
// The returned closure must be invoked after releasing the lock.
func (r *Receiver) decideLocked(s uint64) (Verdict, func()) {
	if r.cfg.StrictHorizon && !r.cfg.Baseline {
		if horizon := r.committed.Load() + r.leap; s >= horizon {
			r.tallies.Add(tallyDiscarded, 1)
			// Extend the horizon: start a save of s itself so the stream
			// resumes one save-latency later (retransmissions or subsequent
			// packets then fall below the new horizon). Saving a value above
			// the current edge is safe — it only widens the post-reset
			// fresh-sacrifice window, exactly as the leap itself does.
			if s > r.lst.Load() {
				gen, val := r.gen, s
				return VerdictHorizon, func() {
					r.startSave(gen, val, false, func(v uint64, err error) { r.saveDone(gen, v, err) })
				}
			}
			return VerdictHorizon, func() {}
		}
	}
	d := r.win.Admit(s)
	v := verdictOf(d)
	if v.Delivered() {
		if !r.ownFast {
			// An owned Atomic window records its own deliveries as claim
			// bits (see admitFast); counting here too would double-count
			// the slow-path admits that land in the same window.
			r.tallies.Add(tallyDelivered, 1)
		}
	} else {
		r.tallies.Add(tallyDiscarded, 1)
	}
	if r.cfg.Baseline {
		return v, func() {}
	}
	edge := r.win.Edge()
	if edge < r.cfg.K+r.lst.Load() {
		return v, func() {}
	}
	gen := r.gen
	return v, func() {
		r.startSave(gen, edge, false, func(sv uint64, err error) { r.saveDone(gen, sv, err) })
	}
}

func (r *Receiver) traceVerdict(s uint64, v Verdict) {
	var k trace.Kind
	switch v {
	case VerdictNew, VerdictInWindow:
		k = trace.KindDeliver
	case VerdictDuplicate:
		k = trace.KindDiscardDup
	case VerdictStale:
		k = trace.KindDiscardStale
	case VerdictHorizon:
		k = trace.KindDiscardHorizon
	default:
		return
	}
	r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: k, Node: r.cfg.Name, Seq: s})
}

// Reset crashes the receiver: window, counters and buffer are volatile and
// considered lost; any in-flight save is discarded.
func (r *Receiver) Reset() {
	r.mu.Lock()
	// Unpublish the fast path first: admits that already loaded the pointer
	// finish against the superseded window (see the type comment); new ones
	// fall to the slow path and observe StateDown.
	r.fastWin.Store(nil)
	if r.ownFast && !r.harvested {
		// Fold the abandoned window's delivery tally into the receiver
		// counter before the wake installs a fresh window. A fast-path admit
		// still in flight against the old window can slip its claim in after
		// this harvest; its delivery then goes uncounted — a bounded
		// observability race on a crashing endpoint, never a protocol one.
		r.tallies.Add(tallyDelivered, r.win.(*seqwin.Atomic).Delivered())
		r.harvested = true
	}
	r.state = StateDown
	r.gen++
	gen := r.gen
	r.resets++
	r.wakeErr = nil
	r.buffer = nil
	r.mu.Unlock()

	// Any save triggered in the old life is torn: startSave drops it via
	// the generation check (the crash destroyed the write in transit).
	r.saveMu.Lock()
	r.saveGen = gen
	r.saveMu.Unlock()

	if c, ok := r.saver.(Canceler); ok {
		c.Cancel()
	}
	r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindReset, Node: r.cfg.Name})
}

// Wake boots the receiver after a reset, implementing the paper's third
// action of process q: FETCH(r); SAVE(r+2Kq); r := r+2Kq; mark the whole
// window received. Messages arriving before the SAVE completes are buffered
// and decided afterwards through the Drain callback. Wake on an endpoint
// that is not down is a no-op; a failed FETCH or SAVE leaves it down with
// the error available from LastWakeError.
func (r *Receiver) Wake() {
	r.mu.Lock()
	if r.state != StateDown {
		r.mu.Unlock()
		return
	}
	if r.cfg.Baseline {
		// §3: the reset receiver restarts with r=0 and a cleared window,
		// accepting any previously used sequence number again.
		r.reinstallLocked(0, false)
		r.state = StateUp
		r.publishLocked()
		r.mu.Unlock()
		r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindWake, Node: r.cfg.Name})
		r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindWakeDone, Node: r.cfg.Name})
		return
	}
	r.state = StateWaking
	gen := r.gen
	r.mu.Unlock()

	r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindWake, Node: r.cfg.Name})

	v, ok, err := r.cfg.Store.Fetch()
	if err == nil && !ok {
		err = ErrNoSavedState
	}
	r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindFetch, Node: r.cfg.Name, Seq: v})
	if err != nil {
		r.failWake(gen, fmt.Errorf("core: receiver wake fetch: %w", err))
		return
	}
	leaped := v + r.leap
	if r.cfg.AblationSkipPostWakeSave {
		// UNSAFE ablation: resume without the durable leap record.
		r.startSave(gen, leaped, true, func(v uint64, err error) { r.saveDone(gen, v, err) })
		r.finishWake(gen, leaped, nil)
		return
	}
	// A synchronous saver completes inside StartSave, with saveMu held.
	// finishWake must then wait until startSave returns: deciding the
	// buffered messages can trigger saves of their own, and saveMu is not
	// reentrant.
	var (
		mu        sync.Mutex
		handedOff bool
		inline    bool
		inlineErr error
	)
	r.startSave(gen, leaped, true, func(v uint64, err error) {
		mu.Lock()
		if !handedOff {
			inline, inlineErr = true, err
			mu.Unlock()
			return
		}
		mu.Unlock()
		r.finishWake(gen, v, err)
	})
	mu.Lock()
	handedOff = true
	mu.Unlock()
	if inline {
		r.finishWake(gen, leaped, inlineErr)
	}
}

func (r *Receiver) failWake(gen uint64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gen != gen {
		return
	}
	r.state = StateDown
	r.wakeErr = err
}

// reinstallLocked rebuilds the window at the given edge. An owned
// concurrent window is replaced by a freshly allocated one — never mutated
// in place — because a fast-path admit that raced the preceding Reset may
// still be operating on the old object; the superseded window is simply
// abandoned to it. Other windows are reinitialized in place: they are only
// ever touched under r.mu. Called with r.mu held and the fast path
// unpublished.
func (r *Receiver) reinstallLocked(edge uint64, allSeen bool) {
	if r.ownFast {
		w := seqwin.NewAtomic(r.width)
		w.Reinit(edge, allSeen)
		r.win = w
		r.harvested = false // the fresh window starts a new delivery tally
		return
	}
	r.win.Reinit(edge, allSeen)
}

// publishLocked re-opens the fast path over the current window; a no-op for
// receivers without an owned concurrent window. Called with r.mu held and
// r.state == StateUp.
func (r *Receiver) publishLocked() {
	if r.ownFast {
		r.fastWin.Store(r.win.(*seqwin.Atomic))
	}
}

func (r *Receiver) finishWake(gen, leaped uint64, err error) {
	r.mu.Lock()
	if r.gen != gen {
		r.mu.Unlock()
		return
	}
	if err != nil {
		r.state = StateDown
		r.wakeErr = fmt.Errorf("core: receiver post-wake save: %w", err)
		r.mu.Unlock()
		r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindSaveError, Node: r.cfg.Name, Seq: leaped})
		return
	}
	// Paper: r := fetched + 2Kq; every entry of wdw set to true.
	r.reinstallLocked(leaped, true)
	r.state = StateUp
	r.publishLocked()
	r.lst.Store(leaped)
	r.committed.Store(leaped)
	buf := r.buffer
	r.buffer = nil
	r.mu.Unlock()

	r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindSaveDone, Node: r.cfg.Name, Seq: leaped})
	r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindWakeDone, Node: r.cfg.Name, Seq: leaped})

	// Decide the buffered messages in arrival order.
	for _, s := range buf {
		r.mu.Lock()
		v, save := r.decideLocked(s)
		r.mu.Unlock()
		r.traceVerdict(s, v)
		save()
		if r.cfg.Drain != nil {
			r.cfg.Drain(s, v)
		}
	}
}

func (r *Receiver) saveDone(gen, v uint64, err error) {
	r.mu.Lock()
	if r.gen != gen {
		r.mu.Unlock()
		return
	}
	if err != nil {
		r.savesFailed++
		// Roll lst back so the next trigger — or a retransmission
		// re-triggering the same horizon-extension value — retries the
		// save (lst doubles as startSave's dedup watermark), unless a
		// newer save has been handed out meanwhile. The single CAS makes
		// the newer-save check atomic with the rollback: startSave runs
		// under saveMu, not r.mu, so a load-then-store pair here could
		// interleave with its watermark update and regress lst below a
		// value already handed to the saver.
		r.lst.CompareAndSwap(v, r.committed.Load())
		r.mu.Unlock()
		r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindSaveError, Node: r.cfg.Name, Seq: v})
		return
	}
	r.savesOK++
	if v > r.committed.Load() {
		r.committed.Store(v)
	}
	r.mu.Unlock()
	r.cfg.Trace.Record(trace.Event{At: r.now(), Kind: trace.KindSaveDone, Node: r.cfg.Name, Seq: v})
}

// Edge returns the anti-replay window's right edge (paper: r).
func (r *Receiver) Edge() uint64 {
	if w := r.fastWin.Load(); w != nil {
		return w.Edge() // atomic; no lock needed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.win.Edge()
}

// W returns the anti-replay window width.
func (r *Receiver) W() int { return r.width }

// Occupancy returns how many numbers inside (edge-w, edge] the window has
// marked seen, or -1 when the window implementation cannot report it. A
// full window right after a wake is the mark-all-seen reinstall; a sparse
// one under load betrays loss or reordering.
func (r *Receiver) Occupancy() int {
	if w := r.fastWin.Load(); w != nil {
		return w.Occupancy() // tag-checked scan; no lock needed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if o, ok := r.win.(seqwin.Occupier); ok {
		return o.Occupancy()
	}
	return -1
}

// LastStored returns the last edge value handed to a SAVE (paper: lst).
func (r *Receiver) LastStored() uint64 { return r.lst.Load() }

// Committed returns the last edge value known durable — the floor under the
// receiver's acceptance horizon. Unlike LastStored (optimistic: handed to a
// save, not necessarily acknowledged) this only grows on completed SAVEs and
// on the wake-up leap, so it is the regression witness disk-fault
// experiments compare across reopen.
func (r *Receiver) Committed() uint64 { return r.committed.Load() }

// State returns the lifecycle state.
func (r *Receiver) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// LastWakeError returns the error that kept the last Wake from completing.
func (r *Receiver) LastWakeError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wakeErr
}

// ReceiverStats is a snapshot of receiver counters.
type ReceiverStats struct {
	Delivered    uint64
	Discarded    uint64
	SavesStarted uint64
	SavesOK      uint64
	SavesFailed  uint64
	Resets       uint64
	Overflowed   uint64
}

// Stats returns a snapshot of the receiver's counters.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	delivered := r.tallies.Value(tallyDelivered)
	if r.ownFast && !r.harvested {
		// The live window carries the current life's delivery tally; see
		// seqwin.Atomic.Delivered.
		delivered += r.win.(*seqwin.Atomic).Delivered()
	}
	return ReceiverStats{
		Delivered:    delivered,
		Discarded:    r.tallies.Value(tallyDiscarded),
		SavesStarted: r.savesStart.Load(),
		SavesOK:      r.savesOK,
		SavesFailed:  r.savesFailed,
		Resets:       r.resets,
		Overflowed:   r.overflowed,
	}
}
