package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"antireplay"
)

// pair is one SA pair: the outbound SA on the peer (sealing) gateway and the
// inbound SA with the same SPI and keys on the primary (opening) gateway.
type pair struct {
	spi      uint32
	src, dst netip.Addr
	keys     antireplay.KeyMaterial
}

// genPairs derives the SA population from the seed: unique non-zero SPIs,
// AES-128 + HMAC-SHA256 keys, and one /32 selector pair each.
func genPairs(rng *rand.Rand, n int) []pair {
	seen := make(map[uint32]bool, n)
	out := make([]pair, n)
	for i := range out {
		spi := rng.Uint32()
		for spi < 256 || seen[spi] {
			spi = rng.Uint32()
		}
		seen[spi] = true
		k := antireplay.KeyMaterial{
			AuthKey: make([]byte, antireplay.AuthKeySize),
			EncKey:  make([]byte, antireplay.EncKeySize),
		}
		fillRand(rng, k.AuthKey)
		fillRand(rng, k.EncKey)
		out[i] = pair{
			spi:  spi,
			src:  netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			dst:  netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
			keys: k,
		}
	}
	return out
}

func fillRand(rng *rand.Rand, b []byte) {
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
}

// node is one gateway over its own lane directory. pool is the benchmark's
// SaverPool handed to the gateway (so its queue can be sampled); it is nil
// for a gateway that owns its pool (a standby image after promotion).
type node struct {
	dir   string
	lanes *antireplay.Lanes
	gw    *antireplay.Gateway
	pool  *antireplay.SaverPool
}

// close shuts the node down. A caller-provided pool closes before the
// gateway, as GatewayConfig.Pool requires. Errors are dropped: close runs on
// deposed (fenced) nodes and on teardown, where nothing acts on them.
func (n *node) close() {
	if n.pool != nil {
		n.pool.Close()
		n.pool = nil
	}
	if n.gw != nil {
		n.gw.Close() //nolint:errcheck // teardown
		n.gw = nil
	}
	if n.lanes != nil {
		n.lanes.Close() //nolint:errcheck // teardown; a fenced medium may refuse
		n.lanes = nil
	}
}

// cluster is the fixture every workload runs on: a peer gateway holding the
// outbound SAs, a primary gateway holding the inbound SAs, and a standby that
// replicates the primary's lanes as a sync follower and mirrors its SA
// population. Every medium is Lanes on the real disk with fsync on.
type cluster struct {
	p     params
	root  string
	pairs []pair
	order []int // seeded SA visit order
	fs    antireplay.FaultFS
	tr    *tracer
	rec   *recorder
	udp   *udpWire

	peer    *node
	primary *node
	// standby is the replica; standbyNode holds its lane directory (its
	// gateway is the standby's own image, reached via Standby.Gateway).
	standby     *antireplay.Standby
	standbyNode *node
	// pools are every SaverPool the benchmark handed to a gateway, closed
	// ones included: their counters are the pool layer's metrics.
	pools []*antireplay.SaverPool
	// promoteAt, wakeAt and wakeDoneAt are stamped by the standby's hooks.
	promoteAt, wakeAt, wakeDoneAt time.Duration

	installRate         float64 // pairs/s over the whole install
	installCPU          time.Duration
	rateFirst, rateLast float64 // pairs/s over the first and last tenth
	addPairNs           []uint32
	mirrorMs            []float64
	// compactions counts the lane compactions of every node closed so far;
	// a node's Lanes, and their count, are gone once it closes.
	compactions uint64
	canaryKey   string
	dirs        int
	closed      bool
}

func (c *cluster) lanesOpts() []antireplay.LanesOption {
	if c.fs != nil {
		return []antireplay.LanesOption{antireplay.LanesWithFS(c.fs)}
	}
	return nil
}

func (c *cluster) newDir(tag string) (string, error) {
	c.dirs++
	dir := filepath.Join(c.root, fmt.Sprintf("%s-%d", tag, c.dirs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("data dir: %w", err)
	}
	return dir, nil
}

// openNode opens (or recovers) the lane directory dir and builds a gateway
// over it with a benchmark-owned pool.
func (c *cluster) openNode(dir string) (*node, error) {
	lanes, err := antireplay.NewLanes(dir, c.lanesOpts()...)
	if err != nil {
		return nil, fmt.Errorf("open lanes %s: %w", dir, err)
	}
	pool := antireplay.NewSaverPool(0)
	gw, err := antireplay.NewGateway(antireplay.GatewayConfig{
		Journal: lanes, Pool: pool, K: c.p.k, W: window,
	})
	if err != nil {
		pool.Close()
		lanes.Close() //nolint:errcheck // error path
		return nil, fmt.Errorf("gateway %s: %w", dir, err)
	}
	c.pools = append(c.pools, pool)
	return &node{dir: dir, lanes: lanes, gw: gw, pool: pool}, nil
}

// window is the anti-replay window of every inbound SA.
const window = 64

// newCluster builds the fixture: three lane directories, the two gateways,
// the SA population installed from two goroutines, and the standby started
// and mirrored.
func newCluster(p params, root string, pairs []pair, order []int, tr *tracer) (*cluster, error) {
	c := &cluster{p: p, root: root, pairs: pairs, order: order, tr: tr,
		rec: newRecorder(len(pairs)), canaryKey: "bench/canary"}
	if tr.fs != nil {
		c.fs = tr.fs
	}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	for _, slot := range []**node{&c.peer, &c.primary} {
		dir, err := c.newDir("node")
		if err != nil {
			return nil, err
		}
		n, err := c.openNode(dir)
		if err != nil {
			return nil, err
		}
		*slot = n
	}
	if err := c.install(); err != nil {
		return nil, err
	}
	dir, err := c.newDir("node")
	if err != nil {
		return nil, err
	}
	lanes, err := antireplay.NewLanes(dir, c.lanesOpts()...)
	if err != nil {
		return nil, fmt.Errorf("standby lanes: %w", err)
	}
	c.standbyNode = &node{dir: dir, lanes: lanes}
	if err := c.attachStandby(); err != nil {
		return nil, err
	}
	if p.udp {
		if c.udp, err = newUDPWire(pairs); err != nil {
			return nil, err
		}
	}
	ok = true
	return c, nil
}

// install registers every pair on both gateways from two goroutines, so the
// lanes can batch the registration SAVEs into shared fsyncs.
func (c *cluster) install() error {
	n := len(c.pairs)
	done := make([]time.Duration, n)
	c.addPairNs = make([]uint32, n)
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	start, cpu0 := now(), cpuTime()
	for w := 0; w < loadGoroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := c.tr.buf(w)
			for pos := w; pos < n; pos += loadGoroutines {
				i := c.order[pos]
				pr := &c.pairs[i]
				t0 := now()
				sel := antireplay.Selector{Src: netip.PrefixFrom(pr.src, 32), Dst: netip.PrefixFrom(pr.dst, 32)}
				_, err := c.peer.gw.AddOutbound(pr.spi, pr.keys, sel)
				if err == nil {
					_, err = c.primary.gw.AddInbound(pr.spi, pr.keys)
				}
				t1 := now()
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("install pair %#x: %w", pr.spi, err)
					}
					mu.Unlock()
					return
				}
				c.addPairNs[pos] = uint32(min(t1-t0, 1<<32-1))
				done[pos] = t1
				buf.add(spAddPair, t0, t1, 0, -1)
			}
		}(w)
	}
	wg.Wait()
	if first != nil {
		return first
	}
	end := now()
	c.installCPU = cpuTime() - cpu0
	slices.Sort(done)
	c.installRate = float64(n) / (end - start).Seconds()
	tenth := max(n/10, 1)
	c.rateFirst = float64(tenth) / (done[tenth-1] - start).Seconds()
	c.rateLast = float64(tenth) / (end - done[n-tenth-1]).Seconds()
	return nil
}

// attachStandby makes standbyNode's medium a sync follower of the primary's
// and mirrors the primary's SA population into the standby's warm image.
func (c *cluster) attachStandby() error {
	sb, err := antireplay.NewStandby(antireplay.StandbyConfig{
		Source: c.primary.lanes, Journal: c.standbyNode.lanes, K: c.p.k, W: window,
		OnPromote: func(uint64) { c.promoteAt = now() },
		OnLifecycle: func(kind string, _ int) {
			switch kind {
			case "wake":
				c.wakeAt = now()
			case "wake-done":
				c.wakeDoneAt = now()
			}
		},
	})
	if err != nil {
		return fmt.Errorf("standby: %w", err)
	}
	c.standby = sb
	if err := sb.Start(); err != nil {
		return fmt.Errorf("standby start: %w", err)
	}
	t0 := now()
	err = sb.Mirror(c.primary.gw.Snapshot())
	t1 := now()
	if err != nil {
		return fmt.Errorf("standby mirror: %w", err)
	}
	c.mirrorMs = append(c.mirrorMs, ms(t1-t0))
	c.tr.buf(0).add(spMirror, t0, t1, 0, -1)
	// The standby is ready once every lane has loaded its snapshot and
	// caught up; traffic measured before that would pay for the catch-up.
	lanes := uint64(c.primary.lanes.LaneCount())
	for deadline := now() + 10*time.Second; now() < deadline; time.Sleep(time.Millisecond) {
		st := sb.Stats()
		if st.Err != nil {
			return fmt.Errorf("standby sync: %w", st.Err)
		}
		if st.SnapshotLoads >= lanes && st.LagRecords == 0 {
			return nil
		}
	}
	return errors.New("standby sync: not caught up after 10s")
}

// close tears the whole fixture down and removes its directories.
func (c *cluster) close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.udp != nil {
		c.udp.close()
	}
	if c.standby != nil {
		c.standby.Stop()
	}
	for _, n := range []*node{c.peer, c.primary, c.standbyNode} {
		if n != nil {
			c.closeNode(n)
		}
	}
}

// closeNode shuts n down, adding its lanes' compactions to the count first.
func (c *cluster) closeNode(n *node) {
	if n.lanes != nil {
		c.compactions += n.lanes.Compactions()
	}
	n.close()
}

// errSkip marks a packet the sender refused under save-lag backpressure; the
// caller moves on to another SA and comes back.
var errSkip = errors.New("save lag")
