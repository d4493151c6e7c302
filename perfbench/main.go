// Command perfbench is the gateway benchmark: it builds a peer gateway, a
// primary gateway and a replicating standby on laned journals (real disk,
// fsync on), drives one of three seeded workloads against the public
// antireplay API, checks the paper's guarantees as correctness gates, and
// prints the metrics as one JSON object on its last line of output.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload tunnel_udp --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the window half
// untraced and half traced and reports the per-layer metrics. See
// perfbench/README.md for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: tunnel_udp, commit_storm or failover_cycle")
	seed := flag.Uint64("seed", 1, "seed for key material, IMIX sizes and SA visit order")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	p, ok := lookup(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		flag.Usage()
		os.Exit(2)
	}
	res, err := benchmark(p, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, filepath.Join(".bench_build", "perfbench-data"), os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// benchmark runs workload p once and returns its result; report lines go to
// log (each prefixed "# ").
func benchmark(p params, seed uint64, d time.Duration, trace bool, dataDir string, log *os.File) (*result, error) {
	root := filepath.Join(dataDir, fmt.Sprintf("%s-%d-%d", p.name, seed, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("data dir: %w", err)
	}
	defer os.RemoveAll(root) //nolint:errcheck // best-effort cleanup
	host := fingerprint(root)
	r := &run{p: p, seed: seed, trace: trace, root: root,
		traceDir: filepath.Join(filepath.Dir(dataDir), "perfbench-trace")}
	if err := r.execute(d); err != nil {
		return nil, err
	}
	say := func(format string, args ...any) { fmt.Fprintf(log, "# "+format+"\n", args...) }
	hj, _ := json.Marshal(host) //nolint:errcheck // plain struct
	say("host %s", hj)
	say("workload %s seed %d seconds %.3f trace %v pairs %d K %d", p.name, seed, d.Seconds(), trace, p.pairs, p.k)
	if host.FsyncMedianUs < 20 || host.FSType == "tmpfs" {
		say("WARNING: data directory fsyncs in %.1fus on %s: this is not a durable disk", host.FsyncMedianUs, host.FSType)
	}
	res := &result{Correct: len(r.g.violations) == 0, Metrics: map[string]metric{}}
	cnt := r.counters()
	res.Attempted = cnt.sealed + r.g.canarySaves
	undelivered := cnt.sealed - min(cnt.sealed, cnt.delivered+cnt.sacrificed)
	res.Failed = undelivered + cnt.hardErrs + r.g.saveErrs
	say("gates: %d replayed ciphertexts, %d accepted; %d counter checks; wake loss max %d (bound 2K = %d) over %d SA wakes; %d violations",
		r.g.replayed, r.g.replayAccepted, r.g.counterChecks, r.g.lossMax, r.g.leap, r.g.wakeLossSamples, len(r.g.violations))
	for _, v := range r.g.violations {
		say("VIOLATION %s", v)
	}
	if trace {
		r.layerMetrics(res.Metrics, say)
	} else {
		r.endToEnd(res.Metrics, say)
	}
	return res, nil
}

// endToEnd fills the end-to-end metrics bounded in BENCHMARK.json: the ones
// that repeat from run to run on a shared host. The others swing with the
// disk and the host's CPU steal; they are printed on a report line instead
// and reported, unbounded, by the traced run.
func (r *run) endToEnd(m map[string]metric, say func(string, ...any)) {
	pk := r.packetStats()
	m["setup_s"] = metric{median(r.setupS), "s"}
	m["heap_bytes_per_sa"] = metric{r.heapPerSA, "B"}
	m["cpu_us_per_pkt"] = metric{pk.cpuPerPkt, "us"}
	ub := map[string]metric{}
	r.unboundedMetrics(ub, pk)
	names := make([]string, 0, len(ub))
	for name := range ub {
		names = append(names, name)
	}
	slices.Sort(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%.6g %s", name, ub[name].Value, ub[name].Unit)
	}
	say("unbounded: %s", strings.Join(parts, " "))
	say("packets: %d delivered in %.3fs of measured traffic; pkt_p99_us is p%.1f of %d samples",
		r.sum.delivered, r.segWall.Seconds(), pk.lat.topPct, pk.lat.n)
	if save := summarize(r.canaryLat); save.n > 0 {
		say("canary saves: %d samples, save_p99_us is p%.1f", save.n, save.topPct)
	}
	say("setups %v CPU s, %v wall s; install %v pairs/s, %v CPU us/pair",
		fmtList(r.setupS), fmtList(r.setupWall), fmtList(r.installRate), fmtList(r.installCPU))
	if len(r.cycles) == 0 {
		return
	}
	var tk, bo, cs, tc, bc, cc []float64
	for _, ct := range r.cycles {
		tk, bo, cs = append(tk, ms(ct.takeover)), append(bo, ms(ct.blackout)), append(cs, ms(ct.coldstart))
		tc, bc, cc = append(tc, ms(ct.takeoverCPU)), append(bc, ms(ct.blackoutCPU)), append(cc, ms(ct.coldstartCPU))
	}
	say("failover cycles: takeover %v ms (CPU %v); blackout %v ms (CPU %v); coldstart %v ms (CPU %v)",
		fmtList(tk), fmtList(tc), fmtList(bo), fmtList(bc), fmtList(cs), fmtList(cc))
}

// unboundedMetrics fills the end-to-end metrics that swing with the host:
// the wall-clock timings (set-up, throughput and packet latency from pk,
// SAVE latency from the canary, install rate from the setups, failover
// timings from the cycles) and the CPU of control-plane work whose waits
// poll. A metric the workload does not exercise reads 0.
func (r *run) unboundedMetrics(m map[string]metric, pk packetStats) {
	save := summarize(r.canaryLat)
	m["setup_wall_s"] = metric{median(r.setupWall), "s"}
	m["pps"] = metric{pk.pps, "1/s"}
	m["goodput_mbps"] = metric{pk.goodput, "Mbit/s"}
	m["pkt_p50_us"] = metric{pk.lat.p50 / 1e3, "us"}
	m["pkt_p99_us"] = metric{pk.lat.top / 1e3, "us"}
	m["save_p50_us"] = metric{save.p50 / 1e3, "us"}
	m["save_p99_us"] = metric{save.top / 1e3, "us"}
	m["install_sa_per_s"] = metric{median(r.installRate), "1/s"}
	m["takeover_ms"] = metric{r.cycleMedian(func(c cycleTimes) time.Duration { return c.takeover }), "ms"}
	m["blackout_ms"] = metric{r.cycleMedian(func(c cycleTimes) time.Duration { return c.blackout }), "ms"}
	m["coldstart_ms"] = metric{r.cycleMedian(func(c cycleTimes) time.Duration { return c.coldstart }), "ms"}
	m["install_cpu_us_per_pair"] = metric{median(r.installCPU), "us"}
	m["takeover_cpu_ms"] = metric{r.cycleMedian(func(c cycleTimes) time.Duration { return c.takeoverCPU }), "ms"}
	m["blackout_cpu_ms"] = metric{r.cycleMedian(func(c cycleTimes) time.Duration { return c.blackoutCPU }), "ms"}
	m["coldstart_cpu_ms"] = metric{r.cycleMedian(func(c cycleTimes) time.Duration { return c.coldstartCPU }), "ms"}
}

func (r *run) cycleMedian(f func(cycleTimes) time.Duration) float64 {
	var xs []float64
	for _, ct := range r.cycles {
		xs = append(xs, ms(f(ct)))
	}
	return median(xs)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// layerMetrics fills the per-layer metrics of a traced run.
func (r *run) layerMetrics(m map[string]metric, say func(string, ...any)) {
	spans := r.tr.all()
	med := func(k spanKind) float64 { return float64(medianDur(durations(spans, k))) }
	pkts := r.sum.delivered
	per1k := func(x uint64) float64 { return perPkt(float64(x)*1000, pkts) }

	var rxDrops, unrouted float64
	if u := r.c.udp; u != nil {
		rxDrops = float64(u.ba.Stats().RxDrops + u.ab.Stats().RxDrops)
		unrouted = float64(u.epA.Unrouted() + u.epB.Unrouted())
	}
	m["wire.send_ns"] = metric{med(spSend), "ns"}
	m["wire.recv_wait_us"] = metric{med(spRecvWait) / 1e3, "us"}
	m["wire.transit_us"] = metric{med(spTransit) / 1e3, "us"}
	m["wire.rx_drops"] = metric{rxDrops, "count"}
	m["wire.unrouted"] = metric{unrouted, "count"}

	m["ipsec.seal_ns"] = metric{med(spSeal), "ns"}
	m["ipsec.open_ns"] = metric{med(spOpen), "ns"}
	m["ipsec.add_pair_us"] = metric{summarize(r.c.addPairNs).p50 / 1e3, "us"}
	m["ipsec.install_rate_first"] = metric{r.c.rateFirst, "1/s"}
	m["ipsec.install_rate_last"] = metric{r.c.rateLast, "1/s"}
	m["ipsec.adopt_ms"] = metric{r.cycleMedian(func(c cycleTimes) time.Duration { return c.adopt }), "ms"}
	m["ipsec.wakeall_ms"] = metric{r.cycleMedian(func(c cycleTimes) time.Duration { return c.coldWake }), "ms"}

	m["core.seal_lag_retries"] = metric{per1k(r.sum.lagRetries), "per_1k_pkts"}
	m["core.horizon_defers"] = metric{per1k(r.sum.horizonDefers), "per_1k_pkts"}
	m["core.delivered_ratio"] = metric{perPkt(float64(r.sum.delivered), r.sum.sealed), "ratio"}
	m["core.wake_loss_max"] = metric{float64(r.g.lossMax), "pkts"}

	fsyncs := durations(spans, spFsync)
	fs := make([]uint32, len(fsyncs))
	for i, d := range fsyncs {
		fs[i] = uint32(min(d, 1<<32-1))
	}
	fsync := summarize(fs)
	pools := r.poolTotals()
	saves := pools.persisted - r.poolsAtStart.persisted
	m["store.fsyncs"] = metric{float64(len(fsyncs)), "count"}
	m["store.fsync_us_p50"] = metric{fsync.p50 / 1e3, "us"}
	m["store.fsync_us_p99"] = metric{fsync.top / 1e3, "us"}
	m["store.saves_per_fsync"] = metric{perPkt(float64(saves), uint64(len(fsyncs))), "ratio"}
	m["store.write_bytes_per_save"] = metric{perPkt(float64(r.tr.fs.writeBytes.Load()), saves), "B"}
	m["store.pool_queue_max"] = metric{float64(r.qMax), "count"}
	m["store.save_retries"] = metric{float64(pools.retries - r.poolsAtStart.retries), "count"}
	m["store.compactions"] = metric{float64(r.c.compactions), "count"}
	m["store.recover_ms"] = metric{r.cycleMedian(func(c cycleTimes) time.Duration { return c.recover }), "ms"}

	lag := summarize(r.lagSamples)
	m["cluster.lag_records_p99"] = metric{lag.top, "records"}
	m["cluster.applied_per_s"] = metric{float64(r.applied) / max(r.segWall.Seconds(), 1e-9), "1/s"}
	m["cluster.promote_ms"] = metric{r.cycleMedian(func(c cycleTimes) time.Duration { return c.promote }), "ms"}
	m["cluster.mirror_ms"] = metric{median(r.c.mirrorMs), "ms"}

	m["proc.allocs_per_pkt"] = metric{r.untr.allocsPerPkt, "count"}
	m["proc.gc_cpu_fraction"] = metric{r.untr.gcFrac, "ratio"}

	// The unbounded end-to-end metrics, packet ones from the untraced half.
	r.unboundedMetrics(m, r.untr)

	budget, gap := stageBudget(spans)
	var stageSum time.Duration
	names := make([]string, 0, len(budget))
	for name, d := range budget {
		stageSum += d
		names = append(names, name)
	}
	slices.Sort(names)
	tracedCPU := r.packetStats().cpuPerPkt
	m["trace.stage_sum_us"] = metric{float64(stageSum) / 1e3, "us"}
	m["trace.stage_cover"] = metric{float64(stageSum) / max(r.untr.lat.p50, 1), "ratio"}
	m["trace.unattributed_us"] = metric{float64(gap) / 1e3, "us"}
	m["trace.overhead_cpu_us_per_pkt"] = metric{tracedCPU - r.untr.cpuPerPkt, "us"}

	for _, name := range names {
		say("stage %-12s median self %.2fus", name, float64(budget[name])/1e3)
	}
	say("stage sum %.2fus vs untraced pkt_p50 %.2fus (cover %.3f)", float64(stageSum)/1e3, r.untr.lat.p50/1e3,
		m["trace.stage_cover"].Value)
	say("unattributed (between the timed calls) median %.2fus per packet", float64(gap)/1e3)
	say("cpu/pkt traced %.3fus untraced %.3fus: tracing overhead %.3fus", tracedCPU, r.untr.cpuPerPkt,
		m["trace.overhead_cpu_us_per_pkt"].Value)
	self := layerSelf(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	slices.Sort(layers)
	for _, l := range layers {
		say("layer %-8s self time %.3f ms", l, ms(self[l]))
	}
	say("spans recorded %d, dropped %d", len(spans), r.tr.dropped())
	name := fmt.Sprintf("%s-seed%d.spans.csv", r.p.name, r.seed)
	if path, err := writeSpans(r.traceDir, name, spans, 200000); err != nil {
		say("spans not written: %v", err)
	} else {
		say("spans written to %s", path)
	}
}

// hostInfo is the fingerprint printed with every result.
type hostInfo struct {
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"nproc"`
	CPU           string  `json:"cpu"`
	Go            string  `json:"go"`
	Kernel        string  `json:"kernel"`
	FSType        string  `json:"fs"`
	FsyncMedianUs float64 `json:"fsync_median_us"`
}

func fingerprint(dir string) hostInfo {
	h := hostInfo{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Go: runtime.Version(),
		CPU: cpuModel(), Kernel: kernelRelease(), FSType: fsType(dir), FsyncMedianUs: fsyncProbe(dir)}
	return h
}
