package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"antireplay"
)

// spanKind names a span recorded around one public call (or, for spPkt, one
// packet from its seal call to its delivered verdict).
type spanKind uint8

const (
	spPkt         spanKind = iota // packet: seal call start -> delivered verdict
	spSeal                        // Gateway.SealAppend
	spSend                        // UDPWireLink.Send
	spTransit                     // Send return -> Recv return (socket, demux, queue)
	spRecvWait                    // UDPWireLink.Recv blocking time
	spOpen                        // Gateway.OpenAppend
	spHorizonWait                 // back-off after VerdictHorizon
	spAddPair                     // AddOutbound + AddInbound
	spMirror                      // Standby.Mirror (Adopt on the image)
	spAdopt                       // Gateway.Adopt on a cold node
	spWakeAll                     // Gateway.WakeAll
	spTakeover                    // Standby.Takeover
	spPromote                     // Takeover start -> OnPromote
	spNewLanes                    // NewLanes (recovery)
	spCanary                      // Cell.Save on the canary key
	spFsync                       // fsync seen by the timing FS
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"pkt", "seal", "send", "transit", "recv_wait", "open",
	"horizon_wait", "add_pair", "mirror", "adopt", "wakeall", "takeover", "promote",
	"new_lanes", "canary_save", "fsync"}

// spanLayer maps each span to the module whose public call it times.
var spanLayer = [numSpanKinds]string{"bench", "ipsec", "wire", "wire", "wire", "ipsec",
	"core", "ipsec", "cluster", "ipsec", "ipsec", "cluster", "cluster",
	"store", "store", "store"}

type span struct {
	start, end time.Duration
	pkt        uint64 // SPI<<32 | seq for packet spans, 0 otherwise
	parent     int32  // index of the parent span in the same buffer, or -1
	kind       spanKind
}

// spanBuf is one goroutine's preallocated span store; when it is full,
// further spans are counted as dropped.
type spanBuf struct {
	on      bool
	spans   []span
	dropped int
}

// sampled keeps one packet in sixteen: every span of a sampled packet is
// recorded (they share the packet id), the rest are skipped. The choice
// hashes the id, so that it does not follow the sequence number's
// alignment with K: with K = 4, sampling every sixteenth sequence number
// traced only packets on SAVE boundaries.
func sampled(pkt uint64) bool { return (pkt*0x9e3779b97f4a7c15)>>60 == 0 }

func (b *spanBuf) add(kind spanKind, start, end time.Duration, pkt uint64, parent int32) int32 {
	if !b.on || (pkt != 0 && !sampled(pkt)) {
		return -1
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{start: start, end: end, pkt: pkt, parent: parent, kind: kind})
	return int32(len(b.spans) - 1)
}

// tracer owns one span buffer per load goroutine (index 0 doubles as the
// control-plane buffer) and one for the timing FS's fsyncs.
type tracer struct {
	bufs [loadGoroutines]*spanBuf
	fs   *timingFS
}

const spanCap = 1 << 19

func newTracer(enabled bool) *tracer {
	t := &tracer{}
	for i := range t.bufs {
		t.bufs[i] = &spanBuf{}
		if enabled {
			t.bufs[i].spans = make([]span, 0, spanCap)
		}
	}
	if enabled {
		t.fs = &timingFS{base: antireplay.OSFaultFS()}
	}
	return t
}

func (t *tracer) buf(i int) *spanBuf { return t.bufs[i] }

func (t *tracer) setOn(on bool) {
	for _, b := range t.bufs {
		b.on = on && cap(b.spans) > 0
	}
	if t.fs != nil {
		t.fs.on.Store(on)
	}
}

// timingFS is a passthrough FaultFS over the real filesystem that times
// every fsync and counts written bytes while on.
type timingFS struct {
	base       antireplay.FaultFS
	on         atomic.Bool
	writeBytes atomic.Uint64
	mu         sync.Mutex
	fsyncs     []span
}

type timedFile struct {
	antireplay.FaultFile
	fs *timingFS
}

func (t *timingFS) wrap(f antireplay.FaultFile, err error) (antireplay.FaultFile, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{FaultFile: f, fs: t}, nil
}

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (antireplay.FaultFile, error) {
	return t.wrap(t.base.OpenFile(name, flag, perm))
}

func (t *timingFS) CreateTemp(dir, pattern string) (antireplay.FaultFile, error) {
	return t.wrap(t.base.CreateTemp(dir, pattern))
}

func (t *timingFS) ReadFile(name string) ([]byte, error)        { return t.base.ReadFile(name) }
func (t *timingFS) Rename(oldpath, newpath string) error        { return t.base.Rename(oldpath, newpath) }
func (t *timingFS) Remove(name string) error                    { return t.base.Remove(name) }
func (t *timingFS) MkdirAll(dir string, perm os.FileMode) error { return t.base.MkdirAll(dir, perm) }

func (t *timingFS) SyncDir(dir string) error {
	t0 := now()
	err := t.base.SyncDir(dir)
	t.noteSync(t0, now())
	return err
}

func (t *timingFS) noteSync(t0, t1 time.Duration) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.fsyncs = append(t.fsyncs, span{start: t0, end: t1, parent: -1, kind: spFsync})
	t.mu.Unlock()
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.FaultFile.Write(p)
	if f.fs.on.Load() {
		f.fs.writeBytes.Add(uint64(n))
	}
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := now()
	err := f.FaultFile.Sync()
	f.fs.noteSync(t0, now())
	return err
}

// fsyncSnapshot returns the fsyncs recorded so far.
func (t *timingFS) fsyncSnapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.fsyncs)
}

// all returns every recorded span, the fsyncs included.
func (t *tracer) all() []span {
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	if t.fs != nil {
		out = append(out, t.fs.fsyncSnapshot()...)
	}
	return out
}

func (t *tracer) dropped() int {
	n := 0
	for _, b := range t.bufs {
		n += b.dropped
	}
	return n
}

// durations returns the durations of every span of kind k.
func durations(spans []span, k spanKind) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.kind == k {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// stageBudget splits each sampled packet's seal-to-delivery time into the
// self times of its stages: the child spans sharing its packet id. It
// returns each stage's median self time over all packets, a packet without
// the stage (most have no horizon wait) counting as 0, and apart from them
// the median of the time no stage covers (the loop between the calls).
func stageBudget(spans []span) (stages map[string]time.Duration, gap time.Duration) {
	children := make(map[uint64][]span)
	var roots []span
	for _, s := range spans {
		switch {
		case s.kind == spPkt:
			roots = append(roots, s)
		case s.pkt != 0:
			children[s.pkt] = append(children[s.pkt], s)
		}
	}
	per := make(map[string][]time.Duration)
	gaps := make([]time.Duration, 0, len(roots))
	for _, r := range roots {
		var cov []span
		for _, c := range children[r.pkt] {
			if c.end <= r.start || c.start >= r.end {
				continue // an earlier or later packet with the same id
			}
			c.start, c.end = max(c.start, r.start), min(c.end, r.end)
			cov = append(cov, c)
		}
		self := make(map[string]time.Duration)
		for _, c := range cov {
			self[spanNames[c.kind]] += c.end - c.start
		}
		for name, d := range self {
			per[name] = append(per[name], d)
		}
		gaps = append(gaps, r.end-r.start-union(cov))
	}
	stages = make(map[string]time.Duration, len(per))
	for name, ds := range per {
		for len(ds) < len(roots) {
			ds = append(ds, 0)
		}
		stages[name] = medianDur(ds)
	}
	return stages, medianDur(gaps)
}

// layerSelf sums each layer's self time: a span's duration minus the part of
// it its children (spans naming it as parent) cover.
func layerSelf(spans []span) map[string]time.Duration {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.kind == spPkt {
			continue
		}
		out[spanLayer[s.kind]] += s.end - s.start - union(kids[int32(i)])
	}
	return out
}

// union is the total length covered by the spans' intervals.
func union(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	ss = slices.Clone(ss)
	slices.SortFunc(ss, func(a, b span) int { return int(a.start - b.start) })
	var total time.Duration
	cur := ss[0]
	for _, s := range ss[1:] {
		if s.start > cur.end {
			total += cur.end - cur.start
			cur = s
			continue
		}
		cur.end = max(cur.end, s.end)
	}
	return total + cur.end - cur.start
}

// writeSpans writes up to limit spans as CSV under dir.
func writeSpans(dir, name string, spans []span, limit int) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,layer,start_ns,end_ns,parent,spi,seq")
	for i, s := range spans {
		if i == limit {
			break
		}
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d\n", spanNames[s.kind], spanLayer[s.kind],
			int64(s.start), int64(s.end), s.parent, s.pkt>>32, s.pkt&0xffffffff)
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // the flush error is the one reported
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}
