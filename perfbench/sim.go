package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"datadroplets/internal/experiments"
)

// simWorkers is the fabric's worker count: one per CPU of the reference
// host, like the live workloads' connection count. simR is the
// simulator's replication target (experiments' default).
const (
	simWorkers = 2
	simR       = 3
)

// simScaleConfig is the sim-scale input: a paper-scale population under
// churn, sustained writes and repair. A call is kept short (10 warmup
// rounds, 20 timed) so a run makes several and setup_s is a median; the
// 128-key space takes about four writes per key per call, so
// copies_vs_r counts copies of keys that were nearly all written.
func simScaleConfig(seed int64) experiments.SimScaleConfig {
	return experiments.SimScaleConfig{
		Nodes:             2000,
		Warmup:            10,
		Rounds:            20,
		Seed:              seed,
		WritesPerRound:    16,
		Keys:              128,
		TransientPerRound: 0.002,
		PermanentPerRound: 0.0002,
		MeanDowntime:      10,
		AggregateAttr:     "v",
		Workers:           simWorkers,
	}
}

// heapSampler records the largest live heap the garbage collector
// reports while a simulator run is in progress.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	return float64(<-h.done) / (1 << 20)
}

// checkSimScale runs a reduced configuration outside the timed part: the
// same seed must give the same digest at one worker and at simWorkers,
// and no run may deliver or lose more messages than it sent.
func checkSimScale(seed int64) error {
	cfg := simScaleConfig(seed)
	cfg.Nodes, cfg.Warmup, cfg.Rounds = 200, 10, 30
	var digests []uint64
	for _, w := range []int{1, simWorkers} {
		cfg.Workers = w
		res := experiments.RunSimScale(cfg)
		if err := checkAccounting(res); err != nil {
			return err
		}
		digests = append(digests, res.Digest())
	}
	return checkDigests(digests)
}

// checkAccounting verifies that a run delivered and lost no more
// messages than it sent.
func checkAccounting(r *experiments.SimScaleResult) error {
	if r.Delivered+r.LostLink+r.LostDead > r.Sent {
		return fmt.Errorf("delivered %d + lost %d+%d > sent %d", r.Delivered, r.LostLink, r.LostDead, r.Sent)
	}
	return nil
}

// checkDigests verifies that runs of one input agree bit for bit.
func checkDigests(ds []uint64) error {
	for i, d := range ds {
		if d != ds[0] {
			return fmt.Errorf("run %d digest %016x differs from run 0's %016x", i, d, ds[0])
		}
	}
	return nil
}

// runSimScale calls experiments.RunSimScale on the same input until the
// run time is used up. Every call must reproduce the first call's digest.
func runSimScale(o runOpts) (*outcome, error) {
	out := &outcome{correct: true, values: map[string]float64{}}
	if err := checkSimScale(o.seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check sim-scale determinism failed:", err)
		out.correct = false
	}
	cfg := simScaleConfig(o.seed)
	tb := o.tr.buf()
	var (
		setups, msPerRound []float64
		results            []*experiments.SimScaleResult
		digests            []uint64
		rounds             int
		elapsed            time.Duration
		cpu                time.Duration
	)
	var cost traceCost
	minCalls := 1
	if o.tr != nil {
		minCalls = 2 // odd calls traced, even ones not (traceCost)
	}
	runtime.GC()
	heap := sampleHeap()
	start := time.Now()
	for len(results) < minCalls || time.Since(start) < o.seconds {
		traced := len(results)%2 == 1
		o.tr.setOn(traced)
		callCPU := selfCPU()
		host0, steal0 := hostCPU()
		s := tb.begin(spanRunSimScale, 0)
		t := time.Now()
		res := experiments.RunSimScale(cfg)
		total := time.Since(t)
		tb.end(s)
		host1, steal1 := hostCPU()
		callCPU = selfCPU() - callCPU
		cpu += callCPU
		cost.add(traced, float64(cfg.Warmup+cfg.Rounds), callCPU, total)
		setups = append(setups, (total - res.Elapsed).Seconds())
		msPerRound = append(msPerRound, unstolen(res.ElapsedSeconds*1000/float64(res.Rounds), stealShare(host0, steal0, host1, steal1)))
		results = append(results, res)
		digests = append(digests, res.Digest())
		rounds += res.Rounds
		elapsed += res.Elapsed
		if err := checkAccounting(res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: check sim-scale accounting failed:", err)
			out.correct = false
		}
	}
	o.tr.setOn(true)
	memMiB := heap.peakMiB()
	if err := checkDigests(digests); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check sim-scale repeatability failed:", err)
		out.correct = false
	}
	out.attempted = int64(rounds)

	sort.Float64s(setups)
	sort.Float64s(msPerRound)
	r := results[0] // every call simulates the same rounds
	allRounds := float64(cfg.Warmup + cfg.Rounds)
	v := out.values
	v["cpu_us_per_op"] = float64(cpu.Microseconds()) / (allRounds * float64(len(results)))
	v["sim.ms_per_round"] = quantile(msPerRound, 0.5)
	v["setup_s"] = quantile(setups, 0.5)
	v["mem_mb"] = memMiB
	v["sim.msgs_per_node_round"] = float64(r.Sent) / float64(cfg.Nodes) / allRounds
	v["copies_vs_r"] = copiesVsR(float64(r.TuplesTotal)/float64(cfg.Keys), simR)

	v["sim.rounds_per_s"] = float64(rounds) / elapsed.Seconds()
	v["sim.sent_per_round"] = float64(r.Sent) / allRounds
	v["sim.delivered_per_round"] = float64(r.Delivered) / allRounds
	v["sim.lost_dead_per_round"] = float64(r.LostDead) / allRounds
	var allocs, bytes float64
	for _, res := range results {
		allocs += res.AllocsPerRound
		bytes += res.BytesPerRound
	}
	v["sim.allocs_per_round"] = allocs / float64(len(results))
	v["sim.bytes_per_round"] = bytes / float64(len(results))
	v["store.digest_serves"] = float64(r.DigestServes)
	if r.DigestServes > 0 {
		v["store.scanned_per_serve"] = float64(r.DigestEntriesScanned) / float64(r.DigestServes)
		v["store.folded_per_serve"] = float64(r.DigestBucketsFolded) / float64(r.DigestServes)
	}
	v["store.entries"] = float64(r.TuplesTotal)
	v["store.copies_per_key"] = float64(r.TuplesTotal) / float64(cfg.Keys)
	if o.tr != nil {
		cost.report(v)
	}
	return out, nil
}

// convergeSeeds are the scenario seeds of sim-converge, fixed in advance
// so the dependability counts repeat exactly across runs; 42 is the seed
// of the committed scenario baselines. One suite on one seed takes
// 17-25 s on the reference host, and a traced run needs two suites, so
// more seeds would not fit in a run.
var convergeSeeds = []int64{42}

// runSimConverge runs the five catalogue fault scenarios in convergence
// mode on every seed of convergeSeeds, as whole suites, while another
// suite fits in the run time. A scenario that does not fully converge within its
// recovery cap is a failed operation. The suite does not depend on
// -seed: its counts must repeat exactly from run to run.
func runSimConverge(o runOpts) (*outcome, error) {
	out := &outcome{correct: true, values: map[string]float64{}}
	setup, err := convergeSetup()
	if err != nil {
		return nil, err
	}
	var (
		msPerRound []float64
		suite      []*experiments.ScenarioResult
		rounds     int
		cpu        time.Duration
		passTime   time.Duration
		cost       traceCost
	)
	minPasses := 1
	if o.tr != nil {
		minPasses = 2 // odd passes traced, even ones not (traceCost)
	}
	runtime.GC()
	heap := sampleHeap()
	start := time.Now()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	// Whole suites only, and another one only if it fits in the run
	// time, judged by the last one's length.
	for pass := 0; pass < minPasses || time.Since(start)+passTime <= o.seconds; pass++ {
		traced := pass%2 == 1
		o.tr.setOn(traced)
		passCPU, passStart, passRounds := selfCPU(), time.Now(), rounds
		runs, err := runSuite(o.tr)
		if err != nil {
			return nil, err
		}
		for i, sr := range runs {
			r := sr.res
			out.attempted++
			if !r.FullConverged {
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d did not fully converge\n", r.Scenario, r.Seed)
			}
			msPerRound = append(msPerRound, unstolen(r.ElapsedSeconds*1000/float64(r.Rounds), sr.steal))
			rounds += r.Rounds
			if pass == 0 {
				suite = append(suite, r)
			} else if r.Digest() != suite[i].Digest() {
				fmt.Fprintf(os.Stderr, "perfbench: check sim-converge repeatability failed: %s seed %d digest %016x, first pass %016x\n",
					r.Scenario, r.Seed, r.Digest(), suite[i].Digest())
				out.correct = false
			}
		}
		passCPU = selfCPU() - passCPU
		passTime = time.Since(passStart)
		cpu += passCPU
		cost.add(traced, float64(rounds-passRounds), passCPU, passTime)
	}
	o.tr.setOn(true)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	memMiB := heap.peakMiB()

	sort.Float64s(msPerRound)
	var (
		sent, delivered, lostDead, suiteRounds, converge, nodes float64
		keepers, bystanders, entries, fresh, staleKeepers       float64
		syncSegs, pushed, readRepairs, superseded               float64
	)
	for _, r := range suite {
		sent += float64(r.Sent)
		delivered += float64(r.Delivered)
		lostDead += float64(r.LostDead)
		suiteRounds += float64(r.Rounds)
		nodes += float64(r.Nodes * r.Rounds)
		if r.FullConverged {
			converge += float64(r.RoundsToFullConverge)
		}
		keepers += r.MeanReplicasEnd
		bystanders += r.BystanderCopiesEnd
		entries += float64(r.StoreEntries)
		fresh += r.AvailFresh
		staleKeepers += r.StaleKeepers
		syncSegs += float64(r.SyncSegments)
		pushed += float64(r.TuplesPushed)
		readRepairs += float64(r.ReadRepairs)
		superseded += float64(r.BystandersSuperseded)
	}
	n := float64(len(suite))
	v := out.values
	v["cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(rounds)
	v["sim.ms_per_round"] = quantile(msPerRound, 0.5)
	v["setup_s"] = setup
	v["mem_mb"] = memMiB
	v["sim.msgs_per_node_round"] = sent / nodes
	v["copies_vs_r"] = copiesVsR((keepers+bystanders)/n, simR)

	v["sim.rounds_per_s"] = float64(rounds) / elapsed.Seconds()
	v["sim.sent_per_round"] = sent / suiteRounds
	v["sim.delivered_per_round"] = delivered / suiteRounds
	v["sim.lost_dead_per_round"] = lostDead / suiteRounds
	v["sim.allocs_per_round"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds)
	v["sim.bytes_per_round"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(rounds)
	v["store.entries"] = entries / n
	v["epidemic.keeper_copies"] = keepers / n
	v["epidemic.bystander_copies"] = bystanders / n
	v["repair.converge_rounds"] = converge
	v["repair.sync_segments"] = syncSegs
	v["repair.tuples_pushed"] = pushed
	v["repair.read_repairs"] = readRepairs
	v["repair.bystanders_superseded"] = superseded
	v["epidemic.fresh_availability"] = fresh / n
	v["epidemic.stale_keeper_copies"] = staleKeepers / n
	var serves, scanned, folded float64
	for _, r := range suite {
		serves += float64(r.DigestServes)
		scanned += float64(r.DigestEntriesScanned)
		folded += float64(r.DigestBucketsFolded)
	}
	v["store.digest_serves"] = serves
	if serves > 0 {
		v["store.scanned_per_serve"] = scanned / serves
		v["store.folded_per_serve"] = folded / serves
	}
	v["store.copies_per_key"] = (keepers + bystanders) / n
	if o.tr != nil {
		cost.report(v)
	}
	return out, nil
}

// scenarioRun is one RunScenario call and the share of the host's CPU
// time stolen while it ran.
type scenarioRun struct {
	res   *experiments.ScenarioResult
	steal float64
}

// runSuite runs every catalogue scenario on every seed of convergeSeeds,
// simWorkers at a time, each on a serial fabric. Results come back in
// catalogue order; each is independent of how the runs were scheduled.
func runSuite(tr *tracer) ([]scenarioRun, error) {
	type job struct {
		name string
		seed int64
	}
	var jobs []job
	for _, seed := range convergeSeeds {
		for _, name := range experiments.ScenarioNames() {
			jobs = append(jobs, job{name, seed})
		}
	}
	runs := make([]scenarioRun, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int, len(jobs))
	for i := range jobs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tb := tr.buf()
			for i := range next {
				host0, steal0 := hostCPU()
				s := tb.begin(spanRunScenario, 0)
				res, err := experiments.RunScenario(experiments.ScenarioConfig{
					Name: jobs[i].name, Seed: jobs[i].seed, Converge: true, Workers: 1,
				})
				tb.end(s)
				host1, steal1 := hostCPU()
				if err != nil {
					errs[i] = err
					continue
				}
				runs[i] = scenarioRun{res: res, steal: stealShare(host0, steal0, host1, steal1)}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// convergeSetup times the set-up of sim-converge's scenarios: the
// network build RunScenario does before its own clock starts. Each
// scenario is run once with one round per phase, one run at a time after
// a collection, so that a build competes with nothing, and the result is
// the median build time in seconds. A first run, not counted, grows the
// heap the builds reuse. In the timed suites two scenarios run at once
// and a build lasts a few milliseconds, so a build timed there measured
// the other scenario's collections: two ten-run sets' medians differed
// by a third.
func convergeSetup() (float64, error) {
	names := experiments.ScenarioNames()
	var builds []float64
	for i, name := range append(names[:1:1], names...) {
		runtime.GC()
		t := time.Now()
		res, err := experiments.RunScenario(experiments.ScenarioConfig{
			Name: name, Seed: convergeSeeds[0], Converge: true, Workers: 1,
			Warmup: 1, FaultRounds: 1, MaxRecovery: 1,
		})
		total := time.Since(t)
		if err != nil {
			return 0, err
		}
		if i > 0 {
			builds = append(builds, (total - time.Duration(res.ElapsedSeconds*float64(time.Second))).Seconds())
		}
	}
	sort.Float64s(builds)
	return quantile(builds, 0.5), nil
}

// unstolen scales a wall-clock time measured while the host withheld
// share steal of its CPU time to the time it would have taken without:
// the simulator keeps both CPUs busy, so it ran for only 1-steal of the
// interval.
func unstolen(t, steal float64) float64 { return t * (1 - steal) }
