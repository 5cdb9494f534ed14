// Command perfbench is the repository's benchmark. One run executes one
// named workload for a fixed time, checks the program's outputs against
// properties computed here, and prints every metric with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around each call into the program's layers and prints the
// per-layer metrics instead, writing the spans to -out. See README.md.
//
// Usage (run.sh builds the binaries first):
//
//	perfbench -workload read-mostly -seed 1 -seconds 10 -trace 0
//	perfbench -workload sim-scale -repeat 10 -seconds 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The end-to-end metrics every workload reports (README.md defines each
// per workload).
var endToEnd = []struct{ name, unit string }{
	{"cpu_us_per_op", "us"},
	{"setup_s", "s"},
	{"mem_mb", "MiB"},
	{"copies_vs_r", "copies"},
}

// The per-layer metrics of traced runs. A layer a workload does not run
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"client.p50_ms", "ms"},
	{"client.get_p50_ms", "ms"},
	{"client.p99_ms", "ms"},
	{"client.p99_window_ms", "ms"},
	{"client.get_p99_ms", "ms"},
	{"client.put_p50_ms", "ms"},
	{"client.put_p99_ms", "ms"},
	{"client.get_samples", "count"},
	{"client.ops_per_s_total", "ops/s"},
	{"client.put_samples", "count"},
	{"client.send_lag_p99_ms", "ms"},
	{"ddclient.do_us", "us"},
	{"ddclient.cpu_us_per_op", "us"},
	{"server.cpu_us_per_op", "us"},
	{"server.get_mean_us", "us"},
	{"server.put_mean_us", "us"},
	{"server.conn_io_us", "us"},
	{"server.stats_us", "us"},
	{"transport.msgs_per_op", "msgs"},
	{"transport.msgs_per_node_round", "msgs"},
	{"transport.dropped", "count"},
	{"transport.mailbox_depth_max", "count"},
	{"epidemic.fill_ms", "ms"},
	{"epidemic.settle_ms", "ms"},
	{"store.keys_min", "count"},
	{"store.copies_per_key", "copies"},
	{"wire.req_encode_ns", "ns"},
	{"wire.req_decode_ns", "ns"},
	{"wire.resp_encode_ns", "ns"},
	{"wire.resp_decode_ns", "ns"},
	{"store.get_ns", "ns"},
	{"store.apply_ns", "ns"},
	{"sim.ms_per_round", "ms"},
	{"sim.rounds_per_s", "rounds/s"},
	{"sim.msgs_per_node_round", "msgs"},
	{"sim.sent_per_round", "msgs"},
	{"sim.delivered_per_round", "msgs"},
	{"sim.lost_dead_per_round", "msgs"},
	{"sim.allocs_per_round", "count"},
	{"sim.bytes_per_round", "bytes"},
	{"store.digest_serves", "count"},
	{"store.scanned_per_serve", "count"},
	{"store.folded_per_serve", "count"},
	{"store.entries", "count"},
	{"epidemic.keeper_copies", "copies"},
	{"epidemic.bystander_copies", "copies"},
	{"repair.converge_rounds", "rounds"},
	{"repair.sync_segments", "count"},
	{"repair.tuples_pushed", "count"},
	{"repair.read_repairs", "count"},
	{"repair.bystanders_superseded", "count"},
	{"epidemic.fresh_availability", "share"},
	{"epidemic.stale_keeper_copies", "share"},
	{"trace.ops_per_s", "ops/s"},
	{"trace.untraced_ops_per_s", "ops/s"},
	{"trace.cpu_us_per_op", "us"},
	{"trace.untraced_cpu_us_per_op", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"host.steal_pct", "%"},
}

// runOpts is what a workload needs from the command line.
type runOpts struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil unless -trace 1
	nodeBin string
	outDir  string
}

// outcome is what a workload returns: its checks' verdict, its op counts
// and every metric it measured, end-to-end and per-layer alike.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
}

var workloads = map[string]func(runOpts) (*outcome, error){
	"read-mostly":  func(o runOpts) (*outcome, error) { return runLive(o, liveSpecs["read-mostly"]) },
	"write-heavy":  func(o runOpts) (*outcome, error) { return runLive(o, liveSpecs["write-heavy"]) },
	"sim-scale":    runSimScale,
	"sim-converge": runSimConverge,
}

func main() {
	workload := flag.String("workload", "", "workload: read-mostly, write-heavy, sim-scale or sim-converge")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 10, "length of the timed part")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print median and quartiles")
	nodeBin := flag.String("node-bin", "", "path of the cmd/datadroplets binary (live workloads)")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for node logs and trace files")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *repeat > 0 {
		args := []string{"-workload", *workload, "-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace),
			"-node-bin", *nodeBin, "-out", *outDir}
		if err := repeatRuns(args, *seed, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runOne(*workload, runOpts{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		nodeBin: *nodeBin,
		outDir:  *outDir,
	}, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runOne runs a workload once and shapes its result.
func runOne(workload string, o runOpts, traced bool) (*result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if traced {
		o.tr = newTracer()
	}
	total0, steal0 := hostCPU()
	out, err := workloads[workload](o)
	if err != nil {
		return nil, err
	}
	// Every figure but the counts depends on how much CPU the host gives
	// this machine; steal is the share it withheld while the run wanted it.
	if total1, steal1 := hostCPU(); total1 > total0 {
		pct := 100 * stealShare(total0, steal0, total1, steal1)
		out.values["host.steal_pct"] = pct
		fmt.Fprintf(os.Stderr, "perfbench: host steal %.1f%% of CPU time during the run\n", pct)
	}
	if traced {
		_, _, spans := o.tr.totals()
		out.values["trace.spans"] = float64(spans)
		path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.tsv", workload, o.seed))
		if err := o.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	res := &result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		v, ok := out.values[m.name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload %s did not measure %s", workload, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s: %s is %v", workload, m.name, v)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return res, nil
}

// hostCPU reads the machine's CPU time from /proc/stat, in ticks: all of
// it and the part the hypervisor gave to other guests (steal). Both are 0
// where /proc/stat cannot be read.
func hostCPU() (total, steal int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, field := range f[1:] {
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// stealShare is the share of the host's CPU time between two hostCPU
// readings that the hypervisor gave to other guests.
func stealShare(total0, steal0, total1, steal1 int64) float64 {
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// copiesVsR is the copies_vs_r metric: r plus the distance of the mean
// copies per key from r, so that a perfectly replicated store reads r and
// lost replicas and surplus copies both read higher.
func copiesVsR(copies, r float64) float64 { return r + math.Abs(copies-r) }

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// quartiles returns the cut points of Python's
// statistics.quantiles(xs, n=4) (its default exclusive method), the
// spread definition the bounds in BENCHMARK.json are judged with.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}
