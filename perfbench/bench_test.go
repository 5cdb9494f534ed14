package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"datadroplets/internal/experiments"
	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

func ver(seq uint64, writer int) tuple.Version {
	return tuple.Version{Seq: seq, Writer: node.ID(writer)}
}

// put and get build log entries.
func put(key int, id writeID, v tuple.Version) logEntry {
	return logEntry{kind: opPut, key: key, id: id, ver: v}
}

func get(key int, id writeID) logEntry { return logEntry{kind: opGet, key: key, id: id} }

// history is a small correct two-connection history over keys 1 and 2.
func history() []*connLog {
	pre := &connLog{conn: 0, node: 1, entries: []logEntry{
		put(1, writeID{0, 1}, ver(1, 1)),
		put(2, writeID{0, 2}, ver(1, 1)),
	}}
	a := &connLog{conn: 1, node: 1, entries: []logEntry{
		put(1, writeID{1, 0}, ver(2, 1)),
		get(1, writeID{1, 0}),
		put(1, writeID{1, 2}, ver(3, 1)),
	}}
	b := &connLog{conn: 2, node: 2, entries: []logEntry{
		get(2, writeID{0, 2}),
		put(2, writeID{2, 1}, ver(2, 2)),
		get(1, writeID{1, 0}), // another connection's write: no session rule
	}}
	return []*connLog{pre, a, b}
}

// readsOf is a read-back of every key of want through three nodes that
// all return the last writer.
func readsOf(want map[int]writeID) (got []map[int]writeID, errs []error) {
	for n := 0; n < 3; n++ {
		m := map[int]writeID{}
		for k, id := range want {
			m[k] = id
		}
		got = append(got, m)
		errs = append(errs, nil)
	}
	return got, errs
}

func TestChecksAcceptCorrectHistory(t *testing.T) {
	logs := history()
	idx, err := versionIndex(logs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMonotonic(logs); err != nil {
		t.Fatal(err)
	}
	if err := checkReadYourWrites(logs, idx); err != nil {
		t.Fatal(err)
	}
	want := lastWriterWins(logs)
	if want[1] != (writeID{1, 2}) || want[2] != (writeID{2, 1}) {
		t.Fatalf("last writers %v", want)
	}
	got, errs := readsOf(want)
	bad, err := checkConverged(want, got, errs)
	if bad != 0 || err != nil {
		t.Fatalf("converged store rejected: %d %v", bad, err)
	}
}

func TestConvergedRejectsStaleValue(t *testing.T) {
	want := lastWriterWins(history())
	got, errs := readsOf(want)
	got[2][1] = writeID{1, 0} // an older write of key 1 read through node 3
	bad, err := checkConverged(want, got, errs)
	if bad != 1 || err == nil || !strings.Contains(err.Error(), "node 3 key 1") {
		t.Fatalf("stale read not rejected: %d %v", bad, err)
	}
}

func TestConvergedRejectsMissingRead(t *testing.T) {
	want := lastWriterWins(history())
	got, errs := readsOf(want)
	delete(got[1], 2) // node 2 did not serve key 2
	errs[1] = errors.New("status NOT_FOUND")
	bad, err := checkConverged(want, got, errs)
	if bad != 1 || err == nil || !strings.Contains(err.Error(), "node 2 key 2: not read (status NOT_FOUND)") {
		t.Fatalf("missing read not rejected: %d %v", bad, err)
	}
}

func TestCopiesVsRReadsLossAndSurplus(t *testing.T) {
	for _, c := range []struct{ copies, want float64 }{{3, 3}, {2.5, 3.5}, {17, 17}} {
		if got := copiesVsR(c.copies, 3); got != c.want {
			t.Errorf("copiesVsR(%v, 3) = %v, want %v", c.copies, got, c.want)
		}
	}
}

func TestMonotonicRejectsVersionGoingBack(t *testing.T) {
	logs := history()
	logs[1].entries[2].ver = ver(1, 1) // node 1 re-mints version 1 after 2
	if err := checkMonotonic(logs); err == nil {
		t.Fatal("backwards version accepted")
	}
}

func TestVersionIndexRejectsSharedVersion(t *testing.T) {
	logs := history()
	logs[2].entries[1].ver = ver(1, 1) // same version as the preload of key 2
	if _, err := versionIndex(logs); err == nil {
		t.Fatal("two writes sharing a version accepted")
	}
}

func TestReadYourWritesRejectsOlderRead(t *testing.T) {
	logs := history()
	// Connection 1 reads key 1 after its own PUT at version 2 but sees
	// the preload's version 1.
	logs[1].entries[1] = get(1, writeID{0, 1})
	idx, err := versionIndex(logs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReadYourWrites(logs, idx); err == nil {
		t.Fatal("read older than own write accepted")
	}
}

func TestReadYourWritesRejectsUnknownValue(t *testing.T) {
	logs := history()
	logs[2].entries[2] = get(1, writeID{9, 9})
	idx, _ := versionIndex(logs)
	if err := checkReadYourWrites(logs, idx); err == nil {
		t.Fatal("value no PUT wrote accepted")
	}
}

func TestDigestAndAccountingChecks(t *testing.T) {
	if err := checkDigests([]uint64{7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	if err := checkDigests([]uint64{7, 8}); err == nil {
		t.Fatal("mismatched digest accepted")
	}
	ok := &experiments.SimScaleResult{Sent: 10, Delivered: 8, LostLink: 1, LostDead: 1}
	if err := checkAccounting(ok); err != nil {
		t.Fatal(err)
	}
	bad := &experiments.SimScaleResult{Sent: 10, Delivered: 10, LostDead: 1}
	if err := checkAccounting(bad); err == nil {
		t.Fatal("more delivered and lost than sent accepted")
	}
}

func TestStreamRepeatsForASeed(t *testing.T) {
	for name, spec := range liveSpecs {
		a, b, c := newStream(5, 1, spec), newStream(5, 1, spec), newStream(6, 1, spec)
		same := true
		for i := 0; i < 5000; i++ {
			x, y, z := a.next(), b.next(), c.next()
			if x != y {
				t.Fatalf("%s: op %d differs for one seed: %v vs %v", name, i, x, y)
			}
			same = same && x == z
		}
		if same {
			t.Fatalf("%s: seeds 5 and 6 gave the same stream", name)
		}
	}
}

func TestStreamMix(t *testing.T) {
	for name, spec := range liveSpecs {
		s := newStream(1, 2, spec)
		put := map[int]bool{}
		gets := 0
		const n = 20000
		for i := 0; i < n; i++ {
			o := s.next()
			if o.key < 0 || o.key >= spec.keys {
				t.Fatalf("%s: key %d outside the preloaded set", name, o.key)
			}
			if o.kind == opPut {
				put[o.key] = true
				continue
			}
			gets++
			if spec.ownReads && !put[o.key] {
				t.Fatalf("%s: GET of key %d the connection never wrote", name, o.key)
			}
		}
		if share := float64(gets) / n; math.Abs(share-spec.readFrac) > 0.02 {
			t.Fatalf("%s: GET share %.3f, want %.2f", name, share, spec.readFrac)
		}
	}
}

func TestValueNamesItsWrite(t *testing.T) {
	id := writeID{conn: 2, seq: 123456}
	v := makeValue(nil, id, 1024)
	got, err := parseValue(v, 1024)
	if err != nil || got != id {
		t.Fatalf("round trip: %v %v", got, err)
	}
	v[500] ^= 1
	if _, err := parseValue(v, 1024); err == nil {
		t.Fatal("corrupt filler accepted")
	}
	v = makeValue(nil, id, 32)
	v[5] ^= 1
	if _, err := parseValue(v, 32); err == nil {
		t.Fatal("corrupt header accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Fatalf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestPacedIssuesRateTimesLength(t *testing.T) {
	spec := liveSpecs["read-mostly"]
	var lag []int64
	next := paced(time.Now(), 50*time.Millisecond, 1000, newStream(1, 1, spec), &lag)
	n := 0
	for _, ok := next(); ok; _, ok = next() {
		n++
	}
	if n != 50 || len(lag) != 50 {
		t.Fatalf("1000/s for 50 ms issued %d ops with %d lag samples, want 50", n, len(lag))
	}
	start := time.Now()
	closed := paced(start, 20*time.Millisecond, 0, newStream(1, 1, spec), &lag)
	for _, ok := closed(); ok; _, ok = closed() {
	}
	if time.Since(start) < 20*time.Millisecond || len(lag) != 50 {
		t.Fatal("closed loop stopped early or recorded lag")
	}
}

func TestStealShare(t *testing.T) {
	if got := stealShare(100, 10, 300, 60); got != 0.25 {
		t.Fatalf("stealShare = %v, want 0.25", got)
	}
	if got := stealShare(100, 10, 100, 10); got != 0 {
		t.Fatalf("stealShare with no elapsed ticks = %v, want 0", got)
	}
}
