package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"datadroplets/internal/ddclient"
	"datadroplets/internal/server"
	"datadroplets/internal/wire"
)

// The live cluster is deployed as in production: one cmd/datadroplets
// process per node on loopback, 20 ms tick, r = 3.
const (
	liveNodes   = 3
	liveTick    = 20 * time.Millisecond
	liveR       = 3
	loadConns   = 2 // one per CPU of the reference host; to nodes 1 and 2
	setupRounds = 5 // cluster boots per run; setup_s is their median
)

// cluster is a set of running node processes.
type cluster struct {
	cmds    []*exec.Cmd
	exited  []chan struct{}
	clients []string // DDB1 client address per node
}

// freeAddrs picks free loopback ports below Linux's default ephemeral
// range (32768-60999), so the nodes' own outgoing connections cannot be
// given one of them between the pick and the bind.
func freeAddrs(n int) ([]string, error) {
	out := make([]string, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries == 1000 {
			return nil, fmt.Errorf("no free loopback port in 20000-32767")
		}
		addr := fmt.Sprintf("127.0.0.1:%d", 20000+rand.Intn(12768))
		ln, err := net.Listen("tcp", addr)
		if err != nil || slices.Contains(out, addr) {
			continue
		}
		ln.Close()
		out = append(out, addr)
	}
	return out, nil
}

// startCluster launches the node processes and waits until every node
// answers PING. A boot in which a node exits (another process took one of
// its ports first) is retried on fresh ports.
func startCluster(bin, logDir string) (*cluster, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var c *cluster
		if c, err = bootCluster(bin, logDir); err == nil {
			return c, nil
		}
		fmt.Fprintln(os.Stderr, "perfbench: boot:", err)
	}
	return nil, err
}

func bootCluster(bin, logDir string) (*cluster, error) {
	addrs, err := freeAddrs(2 * liveNodes)
	if err != nil {
		return nil, err
	}
	gossip, clients := addrs[:liveNodes], addrs[liveNodes:]
	c := &cluster{clients: clients}
	for i := 0; i < liveNodes; i++ {
		logf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("node%d.log", i+1)))
		if err != nil {
			c.stop()
			return nil, err
		}
		cmd := exec.Command(bin,
			"-id", strconv.Itoa(i+1),
			"-peers", strings.Join(gossip, ","),
			"-client", clients[i],
			"-tick", liveTick.String(),
			"-r", strconv.Itoa(liveR))
		cmd.Stdout, cmd.Stderr = logf, logf
		if err := cmd.Start(); err != nil {
			logf.Close()
			c.stop()
			return nil, fmt.Errorf("start node %d: %w", i+1, err)
		}
		done := make(chan struct{})
		go func() { cmd.Wait(); logf.Close(); close(done) }()
		c.cmds = append(c.cmds, cmd)
		c.exited = append(c.exited, done)
	}
	deadline := time.Now().Add(15 * time.Second)
	for i, addr := range clients {
		for {
			cl, err := ddclient.Dial(addr, ddclient.Options{DialTimeout: time.Second})
			if err == nil {
				err = cl.Ping()
				cl.Close()
				if err == nil {
					break
				}
			}
			select {
			case <-c.exited[i]:
				c.stop()
				return nil, fmt.Errorf("node %d exited during boot (see %s)", i+1, logDir)
			default:
			}
			if time.Now().After(deadline) {
				c.stop()
				return nil, fmt.Errorf("node %d not answering: %v", i+1, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return c, nil
}

// stop asks every node to drain (SIGTERM), kills any that outlive the
// grace period, and waits until all have exited.
func (c *cluster) stop() {
	for i, cmd := range c.cmds {
		select {
		case <-c.exited[i]:
		default:
			cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for i, cmd := range c.cmds {
		select {
		case <-c.exited[i]:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-c.exited[i]
		}
	}
}

// procStat reads a node's CPU time (user+system) and resident memory.
func procStat(pid int) (cpu time.Duration, rssBytes int64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15, rss (pages) field 24.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 22 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	var v [3]int64
	for i, field := range []string{f[11], f[12], f[21]} {
		if v[i], err = strconv.ParseInt(field, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(v[0]+v[1]) * time.Second / clkTck, v[2] * int64(os.Getpagesize()), nil
}

// selfCPU is the CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pipe drives one connection: a sender issues requests as its op source
// yields them while fewer than inflight are outstanding, a receiver
// waits for the responses in order. It returns when the sender has
// stopped and every response has arrived.
type pipe struct {
	c     *ddclient.Client
	node  int
	log   connLog
	lat   []latSample
	tb    *spanBuf  // sender's spans
	rb    *spanBuf  // receiver's spans
	epoch time.Time // start of the timed part
	doNs  int64     // total time spent inside Do
	lagNs []int64   // how late each paced request was sent
	fails int64
	err   error
}

type latSample struct {
	kind opKind
	ns   int64
	at   time.Duration // completion time since the pipe's epoch
}

type inflightReq struct {
	o    op
	f    *ddclient.Future
	t0   time.Time
	span span
}

// request is the wire request for op o on connection conn.
func request(spec liveSpec, conn uint32, o op, buf []byte) (wire.Request, []byte) {
	if o.kind == opGet {
		return wire.Request{Op: wire.OpGet, Key: keyName(o.key)}, buf
	}
	buf = makeValue(buf, writeID{conn: conn, seq: o.seq}, spec.valueSize)
	return wire.Request{Op: wire.OpPut, Key: keyName(o.key), Value: buf}, buf
}

// run issues ops from next until it returns false, keeping inflight
// requests outstanding, and records every response.
func (p *pipe) run(spec liveSpec, inflight int, next func() (op, bool)) {
	q := make(chan inflightReq, inflight)
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := range q {
			w := p.rb.begin(spanWait, r.span.id)
			resp, err := r.f.Wait()
			ns := time.Since(r.t0).Nanoseconds()
			p.rb.end(w)
			p.rb.end(r.span)
			p.record(spec, r.o, resp, err, ns)
			<-sem
		}
	}()
	var buf []byte
	var doErr error
	for {
		sem <- struct{}{}
		o, ok := next()
		if !ok {
			break
		}
		var req wire.Request
		req, buf = request(spec, p.log.conn, o, buf)
		opSpan := p.tb.begin(spanOp, 0)
		t0 := time.Now()
		doSpan := p.tb.begin(spanDo, opSpan.id)
		f, err := p.c.Do(&req)
		p.doNs += time.Since(t0).Nanoseconds()
		p.tb.end(doSpan)
		if err != nil {
			doErr = fmt.Errorf("node %d: %w", p.node, err)
			break
		}
		q <- inflightReq{o: o, f: f, t0: t0, span: opSpan}
	}
	close(q)
	wg.Wait()
	if doErr != nil {
		p.fails++
		p.setErr(doErr)
	}
}

func (p *pipe) setErr(err error) {
	if p.err == nil {
		p.err = err
	}
}

// record checks one response's status and adds it to the log.
func (p *pipe) record(spec liveSpec, o op, resp wire.Response, err error, ns int64) {
	if err != nil {
		p.fails++
		p.setErr(err)
		return
	}
	e := logEntry{kind: o.kind, key: o.key}
	switch {
	case o.kind == opPut && resp.Status == wire.StatusOK:
		v, perr := wire.ParseVersion(resp.Payload)
		if perr != nil {
			p.setErr(perr)
			p.fails++
			return
		}
		e.id, e.ver = writeID{conn: p.log.conn, seq: o.seq}, v
	case o.kind == opGet && resp.Status == wire.StatusValue:
		id, perr := parseValue(resp.Payload, spec.valueSize)
		if perr != nil {
			p.setErr(fmt.Errorf("GET %s on node %d: %w", keyName(o.key), p.node, perr))
			p.fails++
			return
		}
		e.id = id
	default:
		// Every key the workloads read is preloaded, so a miss is as much
		// a failure as a timeout.
		p.fails++
		p.setErr(fmt.Errorf("%v %s on node %d: status %v", map[opKind]string{opGet: "GET", opPut: "PUT"}[o.kind], keyName(o.key), p.node, resp.Status))
		return
	}
	p.log.entries = append(p.log.entries, e)
	p.lat = append(p.lat, latSample{kind: o.kind, ns: ns, at: time.Since(p.epoch)})
}

// dialPipes opens one pipelined connection per listed node.
func dialPipes(cl *cluster, nodes []int, conns []uint32, tr *tracer, window int) ([]*pipe, error) {
	ps := make([]*pipe, len(nodes))
	for i, n := range nodes {
		c, err := ddclient.Dial(cl.clients[n-1], ddclient.Options{Window: window})
		if err != nil {
			closePipes(ps)
			return nil, err
		}
		ps[i] = &pipe{c: c, node: n, log: connLog{conn: conns[i], node: n}, tb: tr.buf(), rb: tr.buf()}
	}
	return ps, nil
}

func closePipes(ps []*pipe) {
	for _, p := range ps {
		if p != nil {
			p.c.Close()
		}
	}
}

// stats fetches and decodes one node's STATS document.
func stats(c *ddclient.Client, tb *spanBuf) (server.Stats, error) {
	s := tb.begin(spanStats, 0)
	raw, err := c.Stats()
	tb.end(s)
	var st server.Stats
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	return st, err
}

// statsAll fetches every node's STATS document.
func statsAll(cs []*ddclient.Client, tb *spanBuf) ([]server.Stats, error) {
	out := make([]server.Stats, len(cs))
	for i, c := range cs {
		st, err := stats(c, tb)
		if err != nil {
			return nil, fmt.Errorf("STATS node %d: %w", i+1, err)
		}
		out[i] = st
	}
	return out, nil
}

// preload writes every key of the spec once, split over the load
// connections, and returns when every write is acknowledged. The
// preload's writes are part of the history the checks run on.
func preload(cl *cluster, spec liveSpec) ([]*connLog, error) {
	ps, err := dialPipes(cl, []int{1, 2}, []uint32{0, 0}, nil, 64)
	if err != nil {
		return nil, err
	}
	defer closePipes(ps)
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p *pipe) {
			defer wg.Done()
			k := i
			p.run(spec, 64, func() (op, bool) {
				if k >= spec.keys {
					return op{}, false
				}
				o := op{kind: opPut, key: k, seq: uint32(k)}
				k += len(ps)
				return o, true
			})
		}(i, p)
	}
	wg.Wait()
	logs := make([]*connLog, len(ps))
	for i, p := range ps {
		if p.err != nil {
			return nil, fmt.Errorf("preload: %w", p.err)
		}
		logs[i] = &p.log
	}
	return logs, nil
}

// fill waits after the preload until each node's store has held every
// key, then until every node serves every key's preloaded value. A node
// whose sequencer has never seen a key reads it through the fabric path
// README.md excludes, so the timed part starts only after this. Store
// sizes move as the nodes' size estimates move, so each node is checked
// on its own.
func fill(cl *cluster, spec liveSpec, statCs []*ddclient.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	held := make([]bool, len(statCs))
	for {
		sts, err := statsAll(statCs, nil)
		if err != nil {
			return err
		}
		all := true
		for i, st := range sts {
			held[i] = held[i] || st.StoreLen == spec.keys
			all = all && held[i]
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stores did not reach %d keys", spec.keys)
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := make(map[int]writeID, spec.keys)
	for k := 0; k < spec.keys; k++ {
		want[k] = writeID{seq: uint32(k)}
	}
	_, err := settle(cl, spec, want, time.Now(), nil)
	return err
}

// liveCluster is a booted, preloaded cluster ready for the timed phase.
type liveCluster struct {
	cl     *cluster
	statCs []*ddclient.Client
	logs   []*connLog
}

func (lc *liveCluster) close() {
	for _, c := range lc.statCs {
		c.Close()
	}
	lc.cl.stop()
}

// setUp boots the cluster and preloads it.
func setUp(bin, logDir string, spec liveSpec) (*liveCluster, error) {
	cl, err := startCluster(bin, logDir)
	if err != nil {
		return nil, err
	}
	lc := &liveCluster{cl: cl}
	for _, addr := range cl.clients {
		c, err := ddclient.Dial(addr, ddclient.Options{Window: 4})
		if err != nil {
			lc.close()
			return nil, err
		}
		lc.statCs = append(lc.statCs, c)
	}
	if lc.logs, err = preload(cl, spec); err != nil {
		lc.close()
		return nil, err
	}
	return lc, nil
}

// readBack reads keys through node n (0-based) over one pipelined
// connection and returns the write each served value came from. Keys
// it could not read are missing from the map; err is the first reason.
func readBack(cl *cluster, spec liveSpec, n int, keys []int) (map[int]writeID, error) {
	c, err := ddclient.Dial(cl.clients[n], ddclient.Options{Window: 64})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	p := &pipe{c: c, node: n + 1}
	i := 0
	p.run(spec, 64, func() (op, bool) {
		if i == len(keys) {
			return op{}, false
		}
		i++
		return op{kind: opGet, key: keys[i-1]}, true
	})
	got := make(map[int]writeID, len(p.log.entries))
	for _, e := range p.log.entries {
		got[e.key] = e.id
	}
	return got, p.err
}

// settle reads every written key through every node until each returns
// the last-writer-wins value, and returns how long that took after the
// last acknowledgement.
func settle(cl *cluster, spec liveSpec, want map[int]writeID, lastAck time.Time, tb *spanBuf) (time.Duration, error) {
	keys := sortedKeys(want)
	deadline := time.Now().Add(20 * time.Second)
	for {
		got := make([]map[int]writeID, liveNodes)
		errs := make([]error, liveNodes)
		s := tb.begin(spanSettle, 0)
		var wg sync.WaitGroup
		for n := 0; n < liveNodes; n++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				got[n], errs[n] = readBack(cl, spec, n, keys)
			}(n)
		}
		wg.Wait()
		tb.end(s)
		bad, first := checkConverged(want, got, errs)
		if bad == 0 {
			return time.Since(lastAck), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%d reads disagree with last-writer-wins after 20 s; first: %w", bad, first)
		}
		time.Sleep(liveTick)
	}
}

// paced returns the op source of one connection's timed part. With a
// rate it is an open loop: op i is due at start + i/rate, is sent as soon
// as it is due (or as soon as the window allows, if the node has fallen
// behind), and how late it went out is appended to lag; the timed part
// issues exactly rate*length ops. With rate 0 it is a closed loop that
// issues ops until length has passed.
func paced(start time.Time, length time.Duration, rate int, st *stream, lag *[]int64) func() (op, bool) {
	if rate == 0 {
		return func() (op, bool) {
			if time.Since(start) >= length {
				return op{}, false
			}
			return st.next(), true
		}
	}
	total := int(length.Seconds() * float64(rate))
	i := 0
	return func() (op, bool) {
		if i == total {
			return op{}, false
		}
		due := start.Add(time.Duration(i) * time.Second / time.Duration(rate))
		i++
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		*lag = append(*lag, time.Since(due).Nanoseconds())
		return st.next(), true
	}
}
