package main

import (
	"fmt"
	"sort"

	"datadroplets/internal/tuple"
)

// The checks below restate the consistency guarantees of
// docs/PROTOCOL.md §Consistency from the client's side. They use only
// what the client saw: the version each PUT was acknowledged with and the
// value each GET returned. Every value names the write that produced it
// (makeValue), so a returned value maps to that write's version.

// logEntry is one completed request of a connection, in issue order.
type logEntry struct {
	kind opKind
	key  int
	id   writeID       // PUT: the write; GET: the write whose value came back
	ver  tuple.Version // PUT only: the acknowledged version
}

// connLog is everything one connection did, in issue order, and the node
// it was connected to.
type connLog struct {
	conn    uint32
	node    int
	entries []logEntry
}

// versionIndex maps every acknowledged write to its version. It fails on
// a write acknowledged twice or two writes sharing one version of a key:
// last-writer-wins needs versions to order writes totally.
func versionIndex(logs []*connLog) (map[writeID]tuple.Version, error) {
	type keyVersion struct {
		key int
		ver tuple.Version
	}
	idx := make(map[writeID]tuple.Version)
	owner := make(map[keyVersion]writeID)
	for _, l := range logs {
		for _, e := range l.entries {
			if e.kind != opPut {
				continue
			}
			if _, dup := idx[e.id]; dup {
				return nil, fmt.Errorf("write %v acknowledged twice", e.id)
			}
			idx[e.id] = e.ver
			k := keyVersion{e.key, e.ver}
			if prev, clash := owner[k]; clash {
				return nil, fmt.Errorf("key %d: writes %v and %v share version %v", e.key, prev, e.id, e.ver)
			}
			owner[k] = e.id
		}
	}
	return idx, nil
}

// lastWriterWins computes, for every written key, the write with the
// highest acknowledged version.
func lastWriterWins(logs []*connLog) map[int]writeID {
	best := make(map[int]logEntry)
	for _, l := range logs {
		for _, e := range l.entries {
			if e.kind != opPut {
				continue
			}
			if b, ok := best[e.key]; !ok || b.ver.Less(e.ver) {
				best[e.key] = e
			}
		}
	}
	out := make(map[int]writeID, len(best))
	for k, e := range best {
		out[k] = e.id
	}
	return out
}

// checkMonotonic verifies that the versions a node mints for one key
// strictly increase in the order its clients issued the PUTs. logs must
// be given in the order they ran (preload before the timed phase); each
// log's PUTs are grouped by the node that served them.
func checkMonotonic(logs []*connLog) error {
	last := make(map[[2]int]tuple.Version) // (node, key) -> latest version
	for _, l := range logs {
		for i, e := range l.entries {
			if e.kind != opPut {
				continue
			}
			k := [2]int{l.node, e.key}
			if prev, ok := last[k]; ok && !prev.Less(e.ver) {
				return fmt.Errorf("node %d key %d: conn %d op %d got version %v after %v",
					l.node, e.key, l.conn, i, e.ver, prev)
			}
			last[k] = e.ver
		}
	}
	return nil
}

// checkReadYourWrites verifies that each GET returned a write no older
// than the latest PUT its own connection issued to that key before it.
func checkReadYourWrites(logs []*connLog, versions map[writeID]tuple.Version) error {
	for _, l := range logs {
		own := make(map[int]tuple.Version)
		for i, e := range l.entries {
			switch e.kind {
			case opPut:
				own[e.key] = e.ver
			case opGet:
				got, ok := versions[e.id]
				if !ok {
					return fmt.Errorf("conn %d op %d: GET key %d returned %v, which no acknowledged PUT wrote", l.conn, i, e.key, e.id)
				}
				if want, ok := own[e.key]; ok && got.Less(want) {
					return fmt.Errorf("conn %d op %d: GET key %d returned version %v, older than own PUT %v", l.conn, i, e.key, got, want)
				}
			}
		}
	}
	return nil
}

// checkConverged compares reads of every key through every node with
// the last-writer-wins write: got[n] maps each key read through node n
// to the write it returned, and errs[n] is why any key is missing. It
// returns the number of keys that were wrong or missing on some node and
// the first one as an error.
func checkConverged(want map[int]writeID, got []map[int]writeID, errs []error) (int, error) {
	bad := 0
	var first error
	keys := sortedKeys(want)
	for n := range got {
		for _, k := range keys {
			id, ok := got[n][k]
			var err error
			switch {
			case !ok:
				err = fmt.Errorf("node %d key %d: not read (%v)", n+1, k, errs[n])
			case id != want[k]:
				err = fmt.Errorf("node %d key %d: read %v, last writer is %v", n+1, k, id, want[k])
			}
			if err != nil {
				bad++
				if first == nil {
					first = err
				}
			}
		}
	}
	return bad, first
}

// sortedKeys returns the keys of m in increasing order.
func sortedKeys(m map[int]writeID) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
