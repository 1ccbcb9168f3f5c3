// Command perfbench is the repository benchmark. One invocation runs one
// workload against a stock kexserved process and prints every metric by
// name and unit, ending with one JSON line:
//
//	perfbench -server BIN -work DIR --workload write-small --seed 1 --seconds 30 --trace 0
//
// run.sh builds both binaries from the checkout and supplies -server and
// -work. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones. README.md explains the
// workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"kexclusion/internal/wire"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the reported metrics, in print order. They
// must match BENCHMARK.json (a self-test checks).
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"server_cpu_us_per_op", "us/op"},
	{"server_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"core.acquire_ns_p50", "ns"},
	{"core.acquire_ns_p99", "ns"},
	{"core.spin_polls_per_acquire", "polls/acquire"},
	{"core.slow_path_share", "ratio"},
	{"core.peak_holders", "count"},
	{"renaming.tas_failures_per_name", "failures/name"},
	{"resilient.helping_share", "ratio"},
	{"server.read_fastpath_share", "ratio"},
	{"server.applied_dupes", "count"},
	{"durable.clone_us_p50", "us"},
	{"durable.clone_us_p99", "us"},
	{"durable.step_us_p50", "us"},
	{"resilient.apply_self_us_p50", "us"},
	{"durable.append_us_p50", "us"},
	{"durable.wait_durable_us_p50", "us"},
	{"durable.wait_durable_us_p99", "us"},
	{"durable.records_per_fsync", "records/fsync"},
	{"durable.snapshot_ms_p50", "ms"},
	{"durable.snapshot_bytes", "bytes"},
	{"durable.wal_bytes_per_op", "bytes/op"},
	{"object.map_get_ns_p50", "ns"},
	{"wire.encode_ns_per_op", "ns/op"},
	{"wire.decode_ns_per_op", "ns/op"},
	{"client.flush_us_p50", "us"},
	{"client.wait_us_p50", "us"},
	{"client.tracing_overhead_share", "ratio"},
	{"setup.spawn_s", "s"},
	{"setup.load_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type config struct {
	shape   shape
	seed    int64
	seconds float64
	trace   bool
	server  string // kexserved binary
	work    string // data directories, probe file and span files
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "write-small, write-large or read-large")
	seed := fs.Int64("seed", 1, "seed for session IDs, key streams and load order")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs")
	server := fs.String("server", "", "kexserved binary")
	work := fs.String("work", "", "working directory (data dirs on the filesystem under test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sh, err := shapeByName(*workload)
	if err == nil && (*server == "" || *work == "" || *seconds <= 0 || *trace < 0 || *trace > 1) {
		err = errors.New("need -server, -work, --seconds > 0 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := filepath.Abs(*work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := &config{shape: sh, seed: *seed, seconds: *seconds, trace: *trace == 1, server: *server, work: dir}
	res, err := runWorkload(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload performs one run: set up (several times), warm up, measure,
// check, and for --trace 1 replay in process.
func runWorkload(cfg *config, out io.Writer) (*result, error) {
	sh := &cfg.shape
	if err := clearWork(cfg.work); err != nil {
		return nil, err
	}
	host, err := probeHost(cfg.work)
	if err != nil {
		return nil, fmt.Errorf("fsync probe: %w", err)
	}
	steal0, total0, err := cpuTimes()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%t\n", sh.name, cfg.seed, cfg.seconds, cfg.trace)

	nm := newNames(sh)
	sessions := sessionIDs(sh.sessions, cfg.seed)
	plan := loadPlan(sh, nm, cfg.seed)
	res := &result{Metrics: map[string]metricValue{}}
	var spawns, loads, setups []float64
	var st *stand
	for i := 0; i < sh.setups; i++ {
		s, err := newStand(cfg, nm, plan, sessions, i)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		spawns = append(spawns, s.spawn.Seconds())
		loads = append(loads, s.load.Seconds())
		setups = append(setups, (s.spawn + s.load).Seconds())
		if i == sh.setups-1 {
			st = s
			break
		}
		s.close()
		res.tally(s.cs)
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, err
		}
		syscall.Sync()
	}
	defer st.close()

	// Warm-up: a fixed op count covering at least one snapshot cycle.
	drive(st.cs, warmupOps/(conns*depth), time.Time{})

	dur := time.Duration(cfg.seconds * float64(time.Second))
	m := map[string]float64{}
	var clientBufs []*spanBuf
	if !cfg.trace {
		samples, err := measure(m, st, dur, out)
		if err != nil {
			return nil, err
		}
		if samples < minSamples && cfg.seconds >= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: only %d latency samples (want %d)\n", samples, minSamples)
		}
		m["setup_s"] = median(setups)
	} else {
		s0, err := st.stats()
		if err != nil {
			return nil, err
		}
		// Untraced and traced slices alternate, so that a drift in the
		// host's speed or a warm-up trend falls on both alike.
		epoch := time.Now()
		for range st.cs {
			clientBufs = append(clientBufs, newSpanBuf(epoch))
		}
		var elapsedU, elapsedT time.Duration
		var okU, okT int64
		for k, n := 0, max(2, int(2*dur/3/traceSlice)); k < n; k++ {
			traced := k%2 == 1
			for i, cn := range st.cs {
				cn.spans = nil
				if traced {
					cn.spans = clientBufs[i]
				}
			}
			e, ok := drive(st.cs, 0, time.Now().Add(2*dur/3/time.Duration(n)))
			if traced {
				elapsedT, okT = elapsedT+e, okT+ok
			} else {
				elapsedU, okU = elapsedU+e, okU+ok
			}
		}
		for _, cn := range st.cs {
			cn.spans = nil
		}
		s1, err := st.stats()
		if err != nil {
			return nil, err
		}
		serverLayers(m, s0, s1, okU+okT)
		self := selfIndex(clientBufs)
		m["client.flush_us_p50"] = quantile(self[spClientFlush], 0.5) / 1e3
		m["client.wait_us_p50"] = quantile(self[spClientWait], 0.5) / 1e3
		if okU > 0 && elapsedT > 0 {
			m["client.tracing_overhead_share"] = 1 - (float64(okT)/elapsedT.Seconds())/(float64(okU)/elapsedU.Seconds())
		}
		m["setup.spawn_s"] = median(spawns)
		m["setup.load_s"] = median(loads)
		if !sh.writes() && m["server.read_fastpath_share"] != 1 {
			res.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: reads did not all take the fast path")
		}
		if m["server.applied_dupes"] != 0 {
			res.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: the server answered ops from its dedup window")
		}
	}

	if sh.writes() {
		a, f, err := st.readBack(cfg, nm)
		if err != nil {
			return nil, err
		}
		res.Attempted += a
		res.Failed += f
		fmt.Fprintf(out, "read-back after SIGKILL restart: %d values, %d wrong\n", a, f)
	}
	st.close()
	res.tally(st.cs)

	if cfg.trace {
		rr, err := runReplay(cfg, nm, plan, sessions, dur/3)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		replayLayers(m, rr)
		path := filepath.Join(cfg.work, "spans-"+sh.name+".csv")
		if err := writeSpans(path, append(clientBufs, rr.bufs...)); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}

	steal1, total1, err := cpuTimes()
	if err != nil {
		return nil, err
	}
	stealShare := 0.0
	if total1 > total0 {
		stealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	fmt.Fprintf(out, "host: go=%s nproc=%d fs=%s host.fsync_us_p50=%.1f host.steal_share=%.4f\n",
		host.goVersion, host.nproc, host.fsType, host.fsyncUsP50, stealShare)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "metric %-32s %14.4f %s\n", d.name, v, d.unit)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// clearWork empties the data directories an earlier run left in work and
// flushes the filesystems, so that deleting them and writing back their
// dirty pages does not slow this run's fsyncs.
func clearWork(work string) error {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	for _, pat := range []string{"data-*", "replay", "replay-wal"} {
		dirs, err := filepath.Glob(filepath.Join(work, pat))
		if err != nil {
			return err
		}
		for _, d := range dirs {
			if err := os.RemoveAll(d); err != nil {
				return err
			}
		}
	}
	syscall.Sync()
	return nil
}

// traceSlice is about how long a traced run drives the server with client
// spans off, then on, in turn.
const traceSlice = time.Second

// windowWidth is the measured phase's window. Each end-to-end figure is
// computed inside every window and reported at the fastEnd quantile of
// the windows, counted from the fast end: the 90th percentile for
// throughput, the 10th for latency and CPU per op. Load from outside the benchmark
// on a shared host only ever slows a window, so the fast windows of a run
// are the ones nearest the program's undisturbed speed; a change to the
// program moves every window, the fast ones too. A 30 s phase has 60
// windows of about 1,700 (write-large) to 200,000 (read-large) latency
// samples each.
const (
	windowWidth = 500 * time.Millisecond
	fastEnd     = 0.1
)

// measure runs the measured phase in windows of windowWidth, sampling the
// server's CPU time at every window edge, fills the end-to-end metrics
// but setup_s, and returns the latency sample count.
func measure(m map[string]float64, st *stand, dur time.Duration, out io.Writer) (int, error) {
	n := max(1, int(dur/windowWidth))
	width := dur / time.Duration(n)
	pid := st.srv.pid()
	cpu := make([]time.Duration, n+1)
	var err error
	if cpu[0], err = procCPU(pid); err != nil {
		return 0, err
	}
	start := time.Now()
	for _, cn := range st.cs {
		cn.win = newWindows(start, width, n)
	}
	var cpuErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k <= n && cpuErr == nil; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * width)))
			cpu[k], cpuErr = procCPU(pid)
		}
	}()
	drive(st.cs, 0, start.Add(time.Duration(n)*width))
	<-sampled
	if cpuErr != nil {
		return 0, cpuErr
	}
	hwm, err := procHWM(pid)
	if err != nil {
		return 0, err
	}
	var tput, p50, p99, cpuPerOp []float64
	samples := 0
	for k := 0; k < n; k++ {
		var ok int64
		var lat []float64
		for _, cn := range st.cs {
			ok += cn.win.ok[k]
			for _, ns := range cn.win.lat[k] {
				lat = append(lat, float64(ns)/1e3)
			}
		}
		samples += len(lat)
		tput = append(tput, float64(ok)/width.Seconds())
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		perOp := 0.0
		if ok > 0 {
			perOp = float64(cpu[k+1]-cpu[k]) / 1e3 / float64(ok)
			cpuPerOp = append(cpuPerOp, perOp)
		}
		fmt.Fprintf(out, "window %d: %.0f ops/s p50 %.1f us p99 %.1f us cpu %.2f us/op\n",
			k, tput[k], p50[k], p99[k], perOp)
	}
	for _, cn := range st.cs {
		cn.win = nil
	}
	fmt.Fprintf(out, "samples: %d latencies in %d windows of %v, %d beyond p99\n", samples, n, width, samples/100)
	m["throughput_ops_s"] = quantile(tput, 1-fastEnd)
	m["latency_p50_us"] = quantile(p50, fastEnd)
	m["latency_p99_us"] = quantile(p99, fastEnd)
	m["server_cpu_us_per_op"] = quantile(cpuPerOp, fastEnd)
	m["server_rss_mb"] = float64(hwm) / (1 << 20)
	return samples, nil
}

// tally adds the connections' op counts to the result.
func (r *result) tally(cs []*conn) {
	for _, cn := range cs {
		r.Attempted += cn.attempted
		r.Failed += cn.failed
	}
}

// serverLayers fills the per-layer metrics the server's own counters give
// over the measured phases: per-shard obs deltas from KindStats.
func serverLayers(m map[string]float64, s0, s1 wire.Stats, ops int64) {
	var acq, fast, slow, spins, names, tas, applied, helped, peak int64
	hist := make([]int64, len(s1.PerShard[0].LatencyNSPow2))
	for i, b := range s1.PerShard {
		a := s0.PerShard[i]
		acq += b.Acquires - a.Acquires
		fast += b.FastPathTakes - a.FastPathTakes
		slow += b.SlowPathTakes - a.SlowPathTakes
		spins += b.SpinPolls - a.SpinPolls
		names += b.NameAttempts - a.NameAttempts
		tas += b.TASFailures - a.TASFailures
		applied += b.AppliedOps - a.AppliedOps
		helped += b.HelpingEvents - a.HelpingEvents
		peak = max(peak, b.PeakHolders)
		for j := range hist {
			hist[j] += b.LatencyNSPow2[j] - a.LatencyNSPow2[j]
		}
	}
	m["core.acquire_ns_p50"] = pow2Quantile(hist, 0.50)
	m["core.acquire_ns_p99"] = pow2Quantile(hist, 0.99)
	m["core.spin_polls_per_acquire"] = ratio(spins, acq)
	m["core.slow_path_share"] = ratio(slow, fast+slow)
	m["core.peak_holders"] = float64(peak)
	m["renaming.tas_failures_per_name"] = ratio(tas, names)
	m["resilient.helping_share"] = ratio(helped, applied)
	m["server.read_fastpath_share"] = ratio(s1.ReadFastpath-s0.ReadFastpath, ops)
	m["server.applied_dupes"] = float64(s1.AppliedDupes - s0.AppliedDupes)
}

// replayLayers fills the per-layer metrics of the in-process replay.
func replayLayers(m map[string]float64, rr *replayResult) {
	self := selfIndex(rr.bufs)
	us := func(name spanName, q float64) float64 { return quantile(self[name], q) / 1e3 }
	m["durable.clone_us_p50"] = us(spClone, 0.50)
	m["durable.clone_us_p99"] = us(spClone, 0.99)
	m["durable.step_us_p50"] = us(spStep, 0.50)
	m["resilient.apply_self_us_p50"] = us(spApply, 0.50)
	m["durable.append_us_p50"] = us(spAppend, 0.50)
	m["durable.wait_durable_us_p50"] = us(spWaitDurable, 0.50)
	m["durable.wait_durable_us_p99"] = us(spWaitDurable, 0.99)
	m["durable.records_per_fsync"] = ratio(rr.appends, int64(rr.syncs))
	m["durable.snapshot_ms_p50"] = us(spSnapshot, 0.50) / 1e3
	m["durable.snapshot_bytes"] = median(rr.snapBytes)
	m["durable.wal_bytes_per_op"] = rr.walBytesPerOp
	m["object.map_get_ns_p50"] = quantile(self[spMapGet], 0.50) / mapGetBatch
	m["wire.encode_ns_per_op"] = mean(self[spEncode]) / depth
	m["wire.decode_ns_per_op"] = mean(self[spDecode]) / depth
}

// selfIndex groups the self times (ns) of every span in bufs by name.
func selfIndex(bufs []*spanBuf) map[spanName][]float64 {
	out := make(map[spanName][]float64)
	for _, b := range bufs {
		self := selfTimes(b.spans)
		for i, s := range b.spans {
			out[s.name] = append(out[s.name], float64(self[i]))
		}
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
