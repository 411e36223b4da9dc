package scorecache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// The snapshot wire format, version 1:
//
//	magic   "CERTASC\x01"                      (8 bytes; version in the last byte)
//	count   uint64 LE
//	entry*  keyLen uint32 LE | key bytes | score float64 bits uint64 LE
//	crc     uint32 LE (IEEE CRC-32 of count + entries)
//
// Keys are the canonical pair-content strings of Key, rendered from the
// store's interned ids, so a snapshot written by one process warms any
// service wrapping a model with the same scoring behavior — record
// IDs, interned ids, shard counts and capacity bounds do not
// participate. Entries are sorted by key, making snapshots of identical
// stores byte-identical.
var snapshotMagic = [8]byte{'C', 'E', 'R', 'T', 'A', 'S', 'C', 1}

// maxSnapshotKeyLen bounds a single key's length so a corrupted length
// frame cannot drive a multi-gigabyte allocation before the checksum
// gets a chance to reject the file.
const maxSnapshotKeyLen = 1 << 24

type snap struct {
	key   string
	score float64
}

// ready returns every ready entry with its canonical key, sorted by it.
// In-flight (pending) computations are skipped; concurrent scoring may
// proceed while the store is read, shard by shard.
func (s *Service) ready() []snap {
	var entries []snap
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for r := range sh.ready {
			entries = append(entries, snap{key: string(sh.key(r)), score: sh.recs[r].score})
		}
		sh.mu.Unlock()
	}
	// Every id in the collected keys was interned before its key was
	// stored, so the table read now holds them all.
	strs := s.strs.table()
	for i := range entries {
		entries[i].key = canonical(entries[i].key, strs)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	return entries
}

// Keys returns the canonical pair-content keys (Key) of every ready
// entry, sorted. It exists for cluster placement: a router (or a
// capacity planner) maps each key through ShardHash onto the ring to
// see how the store's working set distributes across workers. Like
// Snapshot it skips in-flight computations and may run concurrently
// with scoring.
func (s *Service) Keys() []string {
	entries := s.ready()
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.key
	}
	return keys
}

// Len reports the number of ready entries currently stored.
func (s *Service) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for range sh.ready {
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// Snapshot writes every ready score to w in the versioned, length-framed
// binary format above and returns the number of entries written. Each
// entry's key is the canonical Key, rendered from the store key's
// interned ids, so the bytes do not depend on the ids this process
// happened to assign. In-flight (pending) computations are skipped;
// concurrent scoring may proceed while the snapshot is taken, shard by
// shard. A server writes the snapshot on graceful shutdown so its
// replacement restarts warm (Restore).
func (s *Service) Snapshot(w io.Writer) (int, error) {
	entries := s.ready()

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return 0, fmt.Errorf("scorecache: writing snapshot magic: %w", err)
	}
	crc := crc32.NewIEEE()
	body := io.MultiWriter(bw, crc)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(entries)))
	if _, err := body.Write(buf[:]); err != nil {
		return 0, fmt.Errorf("scorecache: writing snapshot count: %w", err)
	}
	for _, e := range entries {
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(e.key)))
		if _, err := body.Write(buf[:4]); err != nil {
			return 0, fmt.Errorf("scorecache: writing snapshot entry: %w", err)
		}
		if _, err := io.WriteString(body, e.key); err != nil {
			return 0, fmt.Errorf("scorecache: writing snapshot entry: %w", err)
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.score))
		if _, err := body.Write(buf[:]); err != nil {
			return 0, fmt.Errorf("scorecache: writing snapshot entry: %w", err)
		}
	}
	binary.LittleEndian.PutUint32(buf[:4], crc.Sum32())
	if _, err := bw.Write(buf[:4]); err != nil {
		return 0, fmt.Errorf("scorecache: writing snapshot checksum: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("scorecache: flushing snapshot: %w", err)
	}
	return len(entries), nil
}

// Restore reads a Snapshot back into the store and returns the number of
// entries installed. The whole file is parsed and checksum-verified
// before anything is installed, so a corrupted or truncated snapshot is
// rejected with an error and leaves the service exactly as it was — a
// server whose cache file fails to restore simply starts cold, never
// with half a snapshot and never by panicking. Keys already present
// (including in-flight computations) are kept over the snapshot's value;
// restored entries obey the capacity bound like any other insertion.
func (s *Service) Restore(r io.Reader) (int, error) {
	return s.RestoreFunc(r, nil)
}

// RestoreFunc is Restore with a placement filter: when keep is non-nil
// only entries whose canonical key satisfies it are installed, so a
// worker joining a ring can consume a donor's full snapshot and keep
// just the shard the ring assigns it (cluster.KeepOwned). The filter
// runs only after the whole stream has been parsed and
// checksum-verified — a corrupt snapshot is rejected identically with
// and without a filter, and never consults keep.
//
// Each kept canonical key is parsed back into a store key of interned
// ids. A key that is not exactly what Key writes (a non-canonical
// length such as "03#S", say) keeps an opaque store key that no pair
// shares, and Snapshot writes it back unchanged.
func (s *Service) RestoreFunc(r io.Reader, keep func(key string) bool) (int, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, fmt.Errorf("scorecache: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return 0, fmt.Errorf("scorecache: bad snapshot magic %q (want %q)", magic[:], snapshotMagic[:])
	}
	crc := crc32.NewIEEE()
	body := io.TeeReader(br, crc)
	var buf [8]byte
	if _, err := io.ReadFull(body, buf[:]); err != nil {
		return 0, fmt.Errorf("scorecache: reading snapshot count: %w", err)
	}
	count := binary.LittleEndian.Uint64(buf[:])

	var entries []snap
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(body, buf[:4]); err != nil {
			return 0, fmt.Errorf("scorecache: snapshot truncated at entry %d: %w", i, err)
		}
		keyLen := binary.LittleEndian.Uint32(buf[:4])
		if keyLen > maxSnapshotKeyLen {
			return 0, fmt.Errorf("scorecache: snapshot entry %d claims %d-byte key (corrupt)", i, keyLen)
		}
		key := make([]byte, keyLen)
		if _, err := io.ReadFull(body, key); err != nil {
			return 0, fmt.Errorf("scorecache: snapshot truncated at entry %d: %w", i, err)
		}
		if _, err := io.ReadFull(body, buf[:]); err != nil {
			return 0, fmt.Errorf("scorecache: snapshot truncated at entry %d: %w", i, err)
		}
		entries = append(entries, snap{
			key:   string(key),
			score: math.Float64frombits(binary.LittleEndian.Uint64(buf[:])),
		})
	}
	sum := crc.Sum32()
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return 0, fmt.Errorf("scorecache: reading snapshot checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(buf[:4]); got != sum {
		return 0, fmt.Errorf("scorecache: snapshot checksum mismatch (file %08x, computed %08x)", got, sum)
	}

	installed := 0
	evictions := 0
	for _, en := range entries {
		if keep != nil && !keep(en.key) {
			continue
		}
		k := s.parseKey(en.key)
		h := s.hash(k)
		sh := s.stripe(h)
		sh.mu.Lock()
		if _, ok := sh.find(h, k); ok {
			sh.mu.Unlock()
			continue
		}
		r := sh.insert(h, k)
		sh.recs[r].score = en.score
		evictions += sh.link(r)
		sh.mu.Unlock()
		installed++
	}
	if evictions > 0 {
		s.statmu.Lock()
		s.stats.Evictions += evictions
		s.statmu.Unlock()
	}
	return installed, nil
}
