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
// Keys are the canonical pair-content strings of Key, so a snapshot
// written by one process warms any service wrapping a model with the
// same scoring behavior — record IDs, shard counts and capacity bounds
// do not participate. Entries are sorted by key, making snapshots of
// identical stores byte-identical.
var snapshotMagic = [8]byte{'C', 'E', 'R', 'T', 'A', 'S', 'C', 1}

// maxSnapshotKeyLen bounds a single key's length so a corrupted length
// frame cannot drive a multi-gigabyte allocation before the checksum
// gets a chance to reject the file.
const maxSnapshotKeyLen = 1 << 24

// Keys returns the canonical pair-content keys of every ready entry,
// sorted. It exists for cluster placement: a router (or a capacity
// planner) maps each key through ShardHash onto the ring to see how
// the store's working set distributes across workers. Like Snapshot it
// skips in-flight computations and may run concurrently with scoring.
func (s *Service) Keys() []string {
	var keys []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.tab.all {
			select {
			case <-e.ready:
				if !e.failed {
					keys = append(keys, e.key)
				}
			default:
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(keys)
	return keys
}

// Len reports the number of ready entries currently stored.
func (s *Service) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.tab.all {
			select {
			case <-e.ready:
				if !e.failed {
					n++
				}
			default:
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Snapshot writes every ready score to w in the versioned, length-framed
// binary format above and returns the number of entries written.
// In-flight (pending) computations are skipped; concurrent scoring may
// proceed while the snapshot is taken, shard by shard. A server writes
// the snapshot on graceful shutdown so its replacement restarts warm
// (Restore).
func (s *Service) Snapshot(w io.Writer) (int, error) {
	type snap struct {
		key   string
		score float64
	}
	var entries []snap
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.tab.all {
			select {
			case <-e.ready:
				if !e.failed {
					entries = append(entries, snap{key: e.key, score: e.score})
				}
			default: // pending: another caller is still computing it
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })

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

	type snap struct {
		key   string
		score float64
	}
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
		h := s.hash(en.key)
		sh := s.stripe(h)
		sh.mu.Lock()
		if _, ok := sh.tab.get(h, en.key); ok {
			sh.mu.Unlock()
			continue
		}
		e := &entry{key: en.key, h: h, score: en.score, ready: make(chan struct{})}
		close(e.ready)
		sh.tab.put(h, en.key, e)
		evictions += sh.link(e)
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
