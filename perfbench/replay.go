package main

import (
	"bufio"
	"bytes"
	"math/rand"
	"sort"
	"time"

	"datadroplets/internal/store"
	"datadroplets/internal/tuple"
	"datadroplets/internal/wire"
)

// replayOps is how many ops of each connection's stream the wire and
// store replays run; replayPasses passes are timed and the median kept.
const (
	replayOps    = 20000
	replayPasses = 5
)

// replayCosts holds per-call costs, in nanoseconds, of the workload's own
// requests replayed through the wire codec and a standalone store.
type replayCosts struct {
	reqEncode, reqDecode, respEncode, respDecode float64
	storeGet, storeApply                         float64
}

func medianDur(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// replay regenerates the run's op streams from the seed and times each
// layer call on them in isolation.
func replay(seed int64, spec liveSpec, tb *spanBuf) replayCosts {
	var reqs []wire.Request
	var resps []wire.Response
	var ops []op
	for conn := 1; conn <= loadConns; conn++ {
		st := newStream(seed, conn, spec)
		for i := 0; i < replayOps; i++ {
			o := st.next()
			req, _ := request(spec, uint32(conn), o, nil)
			reqs = append(reqs, req)
			ops = append(ops, o)
			if o.kind == opGet {
				val := makeValue(nil, writeID{conn: uint32(conn), seq: o.seq}, spec.valueSize)
				resps = append(resps, wire.Response{Status: wire.StatusValue, Payload: val})
			} else {
				v := tuple.Version{Seq: uint64(i + 2), Writer: 1}
				resps = append(resps, wire.Response{Status: wire.StatusOK, Payload: wire.AppendVersion(nil, v)})
			}
		}
	}
	n := len(reqs)
	var c replayCosts
	per := func(ds []time.Duration, count int) float64 {
		return float64(medianDur(ds).Nanoseconds()) / float64(count)
	}

	var reqBuf, respBuf bytes.Buffer
	times := make([][]time.Duration, 4)
	for pass := 0; pass < replayPasses; pass++ {
		reqBuf.Reset()
		w := bufio.NewWriterSize(&reqBuf, 64<<10)
		times[0] = append(times[0], tb.timed(spanReqEncode, n, func() {
			for i := range reqs {
				wire.EncodeRequest(w, &reqs[i])
			}
			w.Flush()
		}))
		r := bufio.NewReaderSize(bytes.NewReader(reqBuf.Bytes()), 64<<10)
		var req wire.Request
		times[1] = append(times[1], tb.timed(spanReqDecode, n, func() {
			for range reqs {
				wire.DecodeRequest(r, &req)
			}
		}))
		respBuf.Reset()
		w = bufio.NewWriterSize(&respBuf, 64<<10)
		times[2] = append(times[2], tb.timed(spanRespEncode, n, func() {
			for i := range resps {
				wire.EncodeResponse(w, &resps[i])
			}
			w.Flush()
		}))
		r = bufio.NewReaderSize(bytes.NewReader(respBuf.Bytes()), 64<<10)
		var resp wire.Response
		times[3] = append(times[3], tb.timed(spanRespDecode, n, func() {
			for range resps {
				wire.DecodeResponse(r, &resp)
			}
		}))
	}
	c.reqEncode, c.reqDecode = per(times[0], n), per(times[1], n)
	c.respEncode, c.respDecode = per(times[2], n), per(times[3], n)

	// A standalone store of the workload's size, preloaded like the
	// cluster, then the stream's GETs and PUTs in order.
	var gets, puts []time.Duration
	var nGet, nPut int
	for pass := 0; pass < replayPasses; pass++ {
		st := store.New(rand.New(rand.NewSource(seed)))
		for k := 0; k < spec.keys; k++ {
			st.Apply(&tuple.Tuple{Key: keyName(k), Value: makeValue(nil, writeID{seq: uint32(k)}, spec.valueSize), Version: tuple.Version{Seq: 1, Writer: 1}})
		}
		var getKeys []string
		var putTuples []*tuple.Tuple
		for i, o := range ops {
			if o.kind == opGet {
				getKeys = append(getKeys, keyName(o.key))
			} else {
				putTuples = append(putTuples, &tuple.Tuple{Key: reqs[i].Key, Value: reqs[i].Value, Version: tuple.Version{Seq: uint64(i + 2), Writer: 1}})
			}
		}
		nGet, nPut = len(getKeys), len(putTuples)
		gets = append(gets, tb.timed(spanStoreGet, nGet, func() {
			for _, k := range getKeys {
				st.Get(k)
			}
		}))
		puts = append(puts, tb.timed(spanStoreApply, nPut, func() {
			for _, t := range putTuples {
				st.Apply(t)
			}
		}))
	}
	if nGet > 0 {
		c.storeGet = per(gets, nGet)
	}
	if nPut > 0 {
		c.storeApply = per(puts, nPut)
	}
	return c
}
