package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// opKind is a client operation of the live workloads.
type opKind uint8

const (
	opGet opKind = iota
	opPut
)

// op is one generated client request: a GET or a PUT of key index key.
// A PUT's value is derived from (connection, seq), so every written value
// names the request that wrote it.
type op struct {
	kind opKind
	key  int
	seq  uint32 // position of the op in its connection's stream
}

// liveSpec fixes the inputs of a live workload. Every field is a chosen
// parameter of the benchmark; none is derived from the program.
type liveSpec struct {
	keys      int     // preloaded key set; every timed op touches one of these
	valueSize int     // bytes per value, preload and timed PUTs alike
	readFrac  float64 // share of GETs in the timed stream
	zipfS     float64 // Zipf exponent of key choice; 0 means uniform
	ownReads  bool    // GETs pick keys this connection PUT earlier in its stream
	inflight  int     // most requests a connection keeps in flight
	rate      int     // requests per second per connection; 0 is a closed loop
}

var liveSpecs = map[string]liveSpec{
	// 8192 keys against the soft layer's 1024-entry cache: hot keys hit
	// the cache, the Zipf tail is served from the local replica. 16,000
	// requests/s keep the reference host's two CPUs about half busy.
	"read-mostly": {keys: 8192, valueSize: 32, readFrac: 0.95, zipfS: 1.1, inflight: 512, rate: 8000},
	// 1 KiB updates of a fixed key set, so store size is constant while
	// timed; reads go to keys the same connection wrote.
	"write-heavy": {keys: 2048, valueSize: 1024, readFrac: 0.5, ownReads: true, inflight: 32},
}

// recentPuts is how many of a connection's latest PUT keys a write-heavy
// GET chooses from.
const recentPuts = 64

// stream generates one connection's op sequence. It depends only on the
// seed, the connection index and the spec, never on timing, so a seed
// reproduces the exact request sequence.
type stream struct {
	spec   liveSpec
	rng    *rand.Rand
	zipf   *rand.Zipf
	perm   []int // Zipf rank -> key index, so hot keys spread over the ring
	recent []int // ring of this connection's latest PUT keys
	n      uint32
}

func newStream(seed int64, conn int, spec liveSpec) *stream {
	s := &stream{spec: spec, rng: rand.New(rand.NewSource(seed*1000003 + int64(conn)))}
	if spec.zipfS > 0 {
		// The rank permutation is shared by all connections of a run:
		// they agree on which keys are hot.
		s.perm = rand.New(rand.NewSource(seed)).Perm(spec.keys)
		s.zipf = rand.NewZipf(s.rng, spec.zipfS, 1, uint64(spec.keys-1))
	}
	return s
}

func (s *stream) pickKey() int {
	if s.zipf != nil {
		return s.perm[s.zipf.Uint64()]
	}
	return s.rng.Intn(s.spec.keys)
}

func (s *stream) next() op {
	o := op{seq: s.n}
	s.n++
	read := s.rng.Float64() < s.spec.readFrac
	switch {
	case read && s.spec.ownReads && len(s.recent) > 0:
		o.kind, o.key = opGet, s.recent[s.rng.Intn(len(s.recent))]
	case read && !s.spec.ownReads:
		o.kind, o.key = opGet, s.pickKey()
	default:
		o.kind, o.key = opPut, s.pickKey()
		if s.spec.ownReads {
			if len(s.recent) < recentPuts {
				s.recent = append(s.recent, o.key)
			} else {
				s.recent[o.seq%recentPuts] = o.key
			}
		}
	}
	return o
}

// keyName is the wire key of key index i.
func keyName(i int) string { return fmt.Sprintf("pb:%07d", i) }

// writeID names the request that wrote a value: the connection (0 for
// the preload) and the op's sequence number on it.
type writeID struct {
	conn uint32
	seq  uint32
}

const valueHeader = 12

// makeValue builds the value a request writes: an 8-byte header naming
// the write, a 4-byte checksum of the header, then deterministic filler.
func makeValue(buf []byte, id writeID, size int) []byte {
	if size < valueHeader {
		size = valueHeader
	}
	buf = append(buf[:0], make([]byte, size)...)
	binary.BigEndian.PutUint32(buf[0:], id.conn)
	binary.BigEndian.PutUint32(buf[4:], id.seq)
	binary.BigEndian.PutUint32(buf[8:], headerSum(buf[:8]))
	for i := valueHeader; i < size; i++ {
		buf[i] = byte(uint32(i)*31 + id.seq)
	}
	return buf
}

func headerSum(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// parseValue recovers the write a value came from and checks that the
// value is intact: header checksum, length and filler.
func parseValue(v []byte, size int) (writeID, error) {
	if len(v) != max(size, valueHeader) {
		return writeID{}, fmt.Errorf("value length %d, want %d", len(v), size)
	}
	if binary.BigEndian.Uint32(v[8:]) != headerSum(v[:8]) {
		return writeID{}, fmt.Errorf("value header checksum mismatch")
	}
	id := writeID{conn: binary.BigEndian.Uint32(v[0:]), seq: binary.BigEndian.Uint32(v[4:])}
	for i := valueHeader; i < len(v); i++ {
		if v[i] != byte(uint32(i)*31+id.seq) {
			return writeID{}, fmt.Errorf("value filler corrupt at byte %d", i)
		}
	}
	return id, nil
}
