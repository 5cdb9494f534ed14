package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"datadroplets/internal/server"
)

// runLive runs one live-cluster workload: boot and preload (setupRounds
// times, keeping the last cluster), wait until the kept cluster's nodes
// hold and serve every key, drive the timed load, then check the
// history and read every key back through every node.
func runLive(o runOpts, spec liveSpec) (*outcome, error) {
	if o.nodeBin == "" {
		return nil, fmt.Errorf("live workloads need -node-bin")
	}
	var setups []float64
	var lc *liveCluster
	for i := 0; i < setupRounds; i++ {
		t := time.Now()
		c, err := setUp(o.nodeBin, o.outDir, spec)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < setupRounds-1 {
			c.close()
		} else {
			lc = c
		}
	}
	defer lc.close()
	sort.Float64s(setups)
	t := time.Now()
	if err := fill(lc.cl, spec, lc.statCs); err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	filled := time.Since(t)

	tb := o.tr.buf()
	pids := make([]int, len(lc.cl.cmds))
	for i, cmd := range lc.cl.cmds {
		pids[i] = cmd.Process.Pid
	}
	nodeCPU := func() (time.Duration, error) {
		var sum time.Duration
		for _, pid := range pids {
			cpu, _, err := procStat(pid)
			if err != nil {
				return 0, err
			}
			sum += cpu
		}
		return sum, nil
	}

	ps, err := dialPipes(lc.cl, []int{1, 2}, []uint32{1, 2}, o.tr, 2*spec.inflight)
	if err != nil {
		return nil, err
	}
	defer closePipes(ps)
	before, err := statsAll(lc.statCs, tb)
	if err != nil {
		return nil, err
	}
	cpu0, err := nodeCPU()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()

	// Poller: the transport's mailbox depth and the nodes' resident
	// memory are point samples.
	stop := make(chan struct{})
	type polled struct {
		depth int
		rss   []float64
	}
	polls := make(chan polled)
	go func() {
		var p polled
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				polls <- p
				return
			case <-tick.C:
				if sts, err := statsAll(lc.statCs, tb); err == nil {
					for _, st := range sts {
						p.depth = max(p.depth, st.MailboxDepth)
					}
				}
				var rss int64
				for _, pid := range pids {
					_, r, _ := procStat(pid)
					rss += r
				}
				p.rss = append(p.rss, float64(rss)/(1<<20))
			}
		}
	}()

	// At every second of the timed part the marker records this
	// process's CPU time and the host's CPU and steal counters, so that
	// each one-second window knows how much CPU the host withheld. A
	// traced run records spans in odd seconds only, so the two halves can
	// be compared (traceCost).
	start := time.Now()
	type mark struct {
		self         time.Duration
		total, steal int64
	}
	newMark := func() mark {
		t, s := hostCPU()
		return mark{selfCPU(), t, s}
	}
	marksc := make(chan []mark, 1)
	o.tr.setOn(false)
	go func() {
		marks := []mark{newMark()}
		for k := 1; ; k++ {
			select {
			case <-stop:
				marksc <- marks
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * time.Second))):
			}
			o.tr.setOn(k%2 == 1)
			marks = append(marks, newMark())
		}
	}()
	var wg sync.WaitGroup
	for i, p := range ps {
		p.epoch = start
		wg.Add(1)
		go func(i int, p *pipe) {
			defer wg.Done()
			st := newStream(o.seed, i+1, spec)
			p.run(spec, spec.inflight, paced(start, o.seconds, spec.rate, st, &p.lagNs))
		}(i, p)
	}
	wg.Wait()
	lastAck := time.Now()
	elapsed := lastAck.Sub(start)
	close(stop)
	poll := <-polls
	marks := <-marksc
	o.tr.setOn(true)

	selfUsed := selfCPU() - self0
	cpu1, err := nodeCPU()
	if err != nil {
		return nil, err
	}
	after, err := statsAll(lc.statCs, tb)
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true, values: map[string]float64{}}
	var lats, gets, puts []float64
	var clientNs float64
	// Latencies of the requests completed in each second of the timed
	// part; the last, partial second is left out.
	windows := make([][]float64, int(elapsed/time.Second))
	if len(windows) == 0 {
		return nil, fmt.Errorf("timed part shorter than one second")
	}
	var doNs float64
	for _, p := range ps {
		doNs += float64(p.doNs)
		out.attempted += int64(len(p.log.entries)) + p.fails
		out.failed += p.fails
		if p.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: conn %d: %v\n", p.log.conn, p.err)
		}
		for _, l := range p.lat {
			ms := float64(l.ns) / 1e6
			lats = append(lats, ms)
			clientNs += float64(l.ns)
			if w := int(l.at / time.Second); w < len(windows) {
				windows[w] = append(windows[w], ms)
			}
			if l.kind == opGet {
				gets = append(gets, ms)
			} else {
				puts = append(puts, ms)
			}
		}
	}
	done := float64(len(lats))
	if done == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	for _, xs := range [][]float64{lats, gets, puts} {
		sort.Float64s(xs)
	}

	// Checks on the history: versions, read-your-writes, then
	// last-writer-wins read back through every node.
	logs := append([]*connLog(nil), lc.logs...)
	for _, p := range ps {
		logs = append(logs, &p.log)
	}
	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %v\n", what, err)
		out.correct = false
	}
	versions, err := versionIndex(logs)
	if err != nil {
		fail("unique versions", err)
	}
	if err := checkMonotonic(logs); err != nil {
		fail("per-node version order", err)
	}
	if versions != nil {
		if err := checkReadYourWrites(logs, versions); err != nil {
			fail("read-your-writes", err)
		}
	}
	settled, err := settle(lc.cl, spec, lastWriterWins(logs), lastAck, tb)
	if err != nil {
		fail("last-writer-wins read-back", err)
	}
	final, err := statsAll(lc.statCs, tb)
	if err != nil {
		return nil, err
	}

	sum := func(sts []server.Stats, f func(server.Stats) float64) float64 {
		s := 0.0
		for _, st := range sts {
			s += f(st)
		}
		return s
	}
	sent := sum(after, func(s server.Stats) float64 { return float64(s.FabricSent) }) -
		sum(before, func(s server.Stats) float64 { return float64(s.FabricSent) })
	storeLen := sum(final, func(s server.Stats) float64 { return float64(s.StoreLen) })
	keysMin := final[0].StoreLen
	for _, st := range final {
		keysMin = min(keysMin, st.StoreLen)
	}
	// Mean server-side latency over the timed part, from the STATS
	// histograms' running count and mean.
	meanDelta := func(f func(server.Stats) server.LatencySummary) (mean, count float64) {
		var tot float64
		for i := range after {
			a, b := f(after[i]), f(before[i])
			count += float64(a.Count - b.Count)
			tot += float64(a.Count)*a.Mean - float64(b.Count)*b.Mean
		}
		if count == 0 {
			return 0, 0
		}
		return tot / count, count
	}
	getMean, getN := meanDelta(func(s server.Stats) server.LatencySummary { return s.Get })
	putMean, putN := meanDelta(func(s server.Stats) server.LatencySummary { return s.Put })
	serverMean := 0.0
	if getN+putN > 0 {
		serverMean = (getMean*getN + putMean*putN) / (getN + putN)
	}
	// The latency metrics are medians over the quieter half of the
	// one-second windows, ranked by the share of CPU time the host
	// withheld in each (steal). Latency on a shared host follows that
	// share (a run at 12% steal read p50 45% and p99 three times higher
	// than runs at 2-4%), so windows in which another tenant took the
	// CPU say more about the tenant than about the program.
	quiet := make([]int, len(windows))
	steal := make([]float64, len(windows))
	for k := range windows {
		quiet[k] = k
		if k+1 < len(marks) {
			steal[k] = stealShare(marks[k].total, marks[k].steal, marks[k+1].total, marks[k+1].steal)
		}
	}
	sort.SliceStable(quiet, func(a, b int) bool { return steal[quiet[a]] < steal[quiet[b]] })
	quiet = quiet[:(len(quiet)+1)/2]
	var p50s, p99s []float64
	for _, k := range quiet {
		w := windows[k]
		sort.Float64s(w)
		p50s = append(p50s, quantile(w, 0.50))
		p99s = append(p99s, quantile(w, 0.99))
	}
	sort.Float64s(p50s)
	sort.Float64s(p99s)
	sort.Float64s(poll.rss)
	var lags []float64
	for _, p := range ps {
		for _, ns := range p.lagNs {
			lags = append(lags, float64(ns)/1e6)
		}
	}
	sort.Float64s(lags)

	v := out.values
	v["cpu_us_per_op"] = float64((cpu1 - cpu0 + selfUsed).Microseconds()) / done
	v["client.p99_window_ms"] = quantile(p99s, 0.5)
	v["setup_s"] = quantile(setups, 0.5)
	v["mem_mb"] = quantile(poll.rss, 0.5)
	// N = r here, so no key can have more than r copies: every copy a
	// node lacks is a lost replica.
	v["copies_vs_r"] = copiesVsR(storeLen/float64(spec.keys), liveR)

	v["client.p50_ms"] = quantile(p50s, 0.5)
	v["client.get_p50_ms"] = quantile(gets, 0.50)
	v["client.p99_ms"] = quantile(lats, 0.99)
	v["client.get_p99_ms"] = quantile(gets, 0.99)
	v["client.put_p50_ms"] = quantile(puts, 0.50)
	v["client.put_p99_ms"] = quantile(puts, 0.99)
	v["client.get_samples"] = float64(len(gets))
	v["client.put_samples"] = float64(len(puts))
	v["ddclient.do_us"] = doNs / done / 1e3
	v["ddclient.cpu_us_per_op"] = float64(selfUsed.Microseconds()) / done
	v["server.cpu_us_per_op"] = float64((cpu1 - cpu0).Microseconds()) / done
	v["server.get_mean_us"] = getMean / 1e3
	v["server.put_mean_us"] = putMean / 1e3
	v["server.conn_io_us"] = (clientNs/done - serverMean) / 1e3
	v["server.stats_us"] = o.tr.mean(spanStats) / 1e3
	v["transport.msgs_per_op"] = sent / done
	v["transport.msgs_per_node_round"] = sent / liveNodes / (elapsed.Seconds() / liveTick.Seconds())
	v["transport.dropped"] = sum(final, func(s server.Stats) float64 { return float64(s.FabricDropped) })
	v["transport.mailbox_depth_max"] = float64(poll.depth)
	v["epidemic.fill_ms"] = float64(filled.Microseconds()) / 1e3
	v["epidemic.settle_ms"] = float64(settled.Microseconds()) / 1e3
	v["store.keys_min"] = float64(keysMin)
	v["store.copies_per_key"] = storeLen / float64(spec.keys)
	v["client.ops_per_s_total"] = done / elapsed.Seconds()
	v["client.send_lag_p99_ms"] = quantile(lags, 0.99)
	if o.tr != nil {
		var cost traceCost
		for k := range windows {
			if k+1 < len(marks) {
				cost.add(k%2 == 1, float64(len(windows[k])), marks[k+1].self-marks[k].self, time.Second)
			}
		}
		cost.report(v)
		c := replay(o.seed, spec, tb)
		v["wire.req_encode_ns"], v["wire.req_decode_ns"] = c.reqEncode, c.reqDecode
		v["wire.resp_encode_ns"], v["wire.resp_decode_ns"] = c.respEncode, c.respDecode
		v["store.get_ns"], v["store.apply_ns"] = c.storeGet, c.storeApply
	}
	return out, nil
}
