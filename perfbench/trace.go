package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per layer boundary the benchmark calls across.
const (
	spanOp          = iota // one client request, Do through Wait
	spanDo                 // ddclient.Client.Do: encode and flush
	spanWait               // ddclient.Future.Wait: until the response frame
	spanStats              // the server's STATS op through ddclient
	spanReqEncode          // wire.EncodeRequest replay
	spanReqDecode          // wire.DecodeRequest replay
	spanRespEncode         // wire.EncodeResponse replay
	spanRespDecode         // wire.DecodeResponse replay
	spanStoreGet           // store.Store.Get replay
	spanStoreApply         // store.Store.Apply replay
	spanRunSimScale        // experiments.RunSimScale
	spanRunScenario        // experiments.RunScenario
	spanSettle             // one read-back pass over every node
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "ddclient.Do", "ddclient.Wait", "server.STATS",
	"wire.EncodeRequest", "wire.DecodeRequest", "wire.EncodeResponse", "wire.DecodeResponse",
	"store.Get", "store.Apply", "experiments.RunSimScale", "experiments.RunScenario", "settle.pass",
}

// keptSpans bounds the spans held in memory for the trace file; the
// per-name totals count every span.
const keptSpans = 1 << 16

// span is one timed call: start and end in nanoseconds since the tracer
// started, and the span that caused it (0 for none).
type span struct {
	id, parent uint64
	name       int
	start, end int64
}

// tracer collects spans from many goroutines. A nil *tracer and a nil
// *spanBuf are valid and record nothing, so untraced runs pay one nil
// check per call. A traced run switches recording off for parts of its
// timed phase (setOn) to measure what tracing costs against the same
// work untraced.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	mu     sync.Mutex
	bufs   []*spanBuf
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// setOn switches span recording on or off; spans begun while it is off
// are not recorded.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// spanBuf is one goroutine's span buffer and per-name totals.
type spanBuf struct {
	tr    *tracer
	spans []span
	count [numSpanNames]int64
	total [numSpanNames]int64
	lost  int64
}

func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// begin opens a span; pass the result to end.
func (b *spanBuf) begin(name int, parent uint64) span {
	if b == nil || !b.tr.on.Load() {
		return span{}
	}
	return span{id: b.tr.nextID.Add(1), parent: parent, name: name, start: int64(time.Since(b.tr.t0))}
}

func (b *spanBuf) end(s span) {
	if b == nil || s.id == 0 {
		return
	}
	s.end = int64(time.Since(b.tr.t0))
	b.count[s.name]++
	b.total[s.name] += s.end - s.start
	if len(b.spans) < keptSpans/4 {
		b.spans = append(b.spans, s)
	} else {
		b.lost++
	}
}

// timed records a batch of n identical calls measured as one interval,
// as the replay loops do: the span covers the batch, the totals count n.
func (b *spanBuf) timed(name int, n int, fn func()) time.Duration {
	s := b.begin(name, 0)
	t := time.Now()
	fn()
	d := time.Since(t)
	if s.id != 0 {
		b.end(s)
		b.count[name] += int64(n) - 1
	}
	return d
}

// totals sums every buffer's per-name count and time.
func (t *tracer) totals() (count, total [numSpanNames]int64, spans int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		for i := range count {
			count[i] += b.count[i]
			total[i] += b.total[i]
		}
		spans += int64(len(b.spans)) + b.lost
	}
	return
}

// mean returns the mean duration of spans of one name, in nanoseconds.
func (t *tracer) mean(name int) float64 {
	c, tot, _ := t.totals()
	if c[name] == 0 {
		return 0
	}
	return float64(tot[name]) / float64(c[name])
}

// write stores the kept spans as tab-separated lines: id, parent, name,
// start_ns, end_ns.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, b := range t.bufs {
		for _, s := range b.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceCost compares the traced and the untraced parts of a traced
// run's timed phase: index 1 holds the work done with spans recorded,
// index 0 the work done without. The parts alternate (one-second windows
// on the live cluster, whole calls or suites on the simulator) so that
// both see the same host.
type traceCost struct {
	ops  [2]float64 // requests or simulated rounds
	cpu  [2]time.Duration
	wall [2]time.Duration
}

func (c *traceCost) add(traced bool, ops float64, cpu, wall time.Duration) {
	i := 0
	if traced {
		i = 1
	}
	c.ops[i] += ops
	c.cpu[i] += cpu
	c.wall[i] += wall
}

// report adds the trace.* metrics: throughput and this process's CPU per
// op in each part, and the CPU overhead of the traced part in percent.
func (c *traceCost) report(v map[string]float64) {
	var perOp [2]float64
	for i := range perOp {
		if c.ops[i] > 0 {
			perOp[i] = float64(c.cpu[i].Microseconds()) / c.ops[i]
		}
	}
	if c.wall[1] > 0 {
		v["trace.ops_per_s"] = c.ops[1] / c.wall[1].Seconds()
	}
	if c.wall[0] > 0 {
		v["trace.untraced_ops_per_s"] = c.ops[0] / c.wall[0].Seconds()
	}
	v["trace.cpu_us_per_op"] = perOp[1]
	v["trace.untraced_cpu_us_per_op"] = perOp[0]
	if perOp[0] > 0 {
		v["trace.overhead_pct"] = 100 * (perOp[1]/perOp[0] - 1)
	}
}
