package scorecache

import (
	"math"
	"math/bits"
)

// slab is one store stripe's scores, held in three flat parts so that
// a stored score is no heap object of its own:
//
//   - keys, one byte arena holding every stored key back to back;
//   - recs, fixed-size records at stable uint32 indexes, each holding
//     its key's place in the arena, the score, the LRU links and the
//     in-flight claim;
//   - index, an open-addressing table of (hash tag, record index)
//     pairs.
//
// Record 0 is never used, so index 0 means "none" in the LRU links and
// the free list, and an index word of 0 marks an empty slot. A record
// keeps its index from insert to remove, whatever else the slab adds,
// frees or compacts, so holders may keep the index across unlocks; a
// removed record's index is reused by a later insert. The hash tag is
// the high half of the key's hash: it picks the key's home slot
// (Fibonacci hashing, because every key of one stripe shares
// hash % Shards in its low bits) and filters probes before any key
// bytes are compared, and growth moves index words by their tag alone.
// Deletion shifts the rest of a probe run back over the hole, so there
// are no tombstones. Freed records' key bytes stay in the arena as dead
// bytes until they outnumber the live ones; the arena is then copied
// down to the live keys.
//
// A slab is not safe for concurrent use; its stripe's lock guards it.
// The zero slab is empty, unbounded and ready to use.
type slab struct {
	keys  []byte   // arena of every used record's key
	dead  int      // arena bytes of freed records
	recs  []rec    // recs[0] is unused
	free  uint32   // head of the free list, linked through rec.next
	index []uint64 // tag<<32 | record index; 0 empty; len 0 or a power of two
	shift uint     // 64 - log2(len(index))
	n     int      // used records (occupied index slots)

	// LRU list of ready records, most recent at head; kept only when
	// cap > 0.
	head, tail uint32
	linked     int
	cap        int
}

// rec is one stored key's record. A pending record (claim non-nil)
// marks an in-flight computation: concurrent requesters wait on its
// claim instead of invoking the model again (singleflight), and read
// the score at pos of the claim's scores once it is done. Publication
// sets score and clears claim under the stripe lock.
type rec struct {
	off, n     uint32 // the key: keys[off : off+n]
	tag        uint32 // the high half of the key's hash
	prev, next uint32 // LRU links of a ready record; next links free records
	pos        uint32 // a pending key's position in its claim's scores
	score      float64
	claim      *claim // the batch computing score; nil once published, freed when free
}

// freed is the claim of every free record, so a slab walk tells free
// records (claim == freed) from pending ones and ready ones (nil).
var freed = new(claim)

// minIndexSlots is the first index allocation of an empty slab.
const minIndexSlots = 8

func tagOf(h uint64) uint32 { return uint32(h >> 32) }

// home is tag's first probe slot: the top bits of tag times 2^64/φ.
func (s *slab) home(tag uint32) int {
	return int((uint64(tag) * 0x9E3779B97F4A7C15) >> s.shift)
}

// key returns record i's key bytes, which alias the arena: valid only
// until the next insert or remove.
func (s *slab) key(i uint32) []byte {
	r := &s.recs[i]
	return s.keys[r.off : r.off+r.n]
}

// find returns the index of the record holding key, whose hash is h.
func (s *slab) find(h uint64, key string) (uint32, bool) {
	if s.n == 0 {
		return 0, false
	}
	tag := tagOf(h)
	mask := len(s.index) - 1
	for j := s.home(tag); s.index[j] != 0; j = (j + 1) & mask {
		if w := s.index[j]; uint32(w>>32) == tag {
			if i := uint32(w); string(s.key(i)) == key {
				return i, true
			}
		}
	}
	return 0, false
}

// insert stores key, whose hash is h and which the slab must not hold
// yet, in a new ready record with a zero score and returns its index.
func (s *slab) insert(h uint64, key string) uint32 {
	// Arena offsets are uint32. Store keys are at least 8 bytes, so
	// this bound also keeps record indexes below 2^32.
	if uint64(len(s.keys))+uint64(len(key)) > math.MaxUint32 {
		panic("scorecache: a store stripe's keys outgrew 4 GiB")
	}
	// Keep the load at most 3/4, so every probe run ends at an empty slot.
	if (s.n+1)*4 > len(s.index)*3 {
		s.resize(max(minIndexSlots, 2*len(s.index)))
	}
	i := s.free
	if i != 0 {
		s.free = s.recs[i].next
	} else {
		if len(s.recs) == 0 {
			s.recs = append(s.recs, rec{}) // record 0 stands for none
		}
		i = uint32(len(s.recs))
		s.recs = append(s.recs, rec{})
	}
	tag := tagOf(h)
	s.recs[i] = rec{off: uint32(len(s.keys)), n: uint32(len(key)), tag: tag}
	s.keys = append(s.keys, key...)
	mask := len(s.index) - 1
	j := s.home(tag)
	for s.index[j] != 0 {
		j = (j + 1) & mask
	}
	s.index[j] = uint64(tag)<<32 | uint64(i)
	s.n++
	return i
}

// remove frees record i, which must be used and not linked.
func (s *slab) remove(i uint32) {
	r := &s.recs[i]
	mask := len(s.index) - 1
	j := s.home(r.tag)
	for uint32(s.index[j]) != i {
		j = (j + 1) & mask
	}
	// Close the hole: a later slot of the run moves into it unless its
	// home lies cyclically in (hole, slot], where it must stay reachable.
	for k := (j + 1) & mask; s.index[k] != 0; k = (k + 1) & mask {
		if (k-s.home(uint32(s.index[k]>>32)))&mask >= (k-j)&mask {
			s.index[j] = s.index[k]
			j = k
		}
	}
	s.index[j] = 0
	s.n--
	s.dead += int(r.n)
	*r = rec{next: s.free, claim: freed}
	s.free = i
	if s.dead > len(s.keys)-s.dead {
		s.compact()
	}
}

// compact copies the arena down to the used records' keys.
func (s *slab) compact() {
	keys := make([]byte, 0, len(s.keys)-s.dead)
	for i := 1; i < len(s.recs); i++ {
		if r := &s.recs[i]; r.claim != freed {
			off := len(keys)
			keys = append(keys, s.keys[r.off:r.off+r.n]...)
			r.off = uint32(off)
		}
	}
	s.keys, s.dead = keys, 0
}

// resize rebuilds the index with size slots, a power of two that keeps
// the load bound, placing each word by its tag.
func (s *slab) resize(size int) {
	old := s.index
	s.index = make([]uint64, size)
	s.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, w := range old {
		if w == 0 {
			continue
		}
		j := s.home(uint32(w >> 32))
		for s.index[j] != 0 {
			j = (j + 1) & mask
		}
		s.index[j] = w
	}
}

// ready yields the index of every ready record, in slab order
// (range-over-func).
func (s *slab) ready(yield func(i uint32) bool) {
	for i := 1; i < len(s.recs); i++ {
		if s.recs[i].claim == nil && !yield(uint32(i)) {
			return
		}
	}
}

// touch moves ready record i to the LRU head. No-op for unbounded slabs.
func (s *slab) touch(i uint32) {
	if s.cap <= 0 || s.head == i {
		return
	}
	s.unlink(i)
	s.pushFront(i)
}

// link inserts newly ready record i at the LRU head and removes the
// coldest records past the capacity bound, returning how many. No-op
// (returning 0) for unbounded slabs.
func (s *slab) link(i uint32) int {
	if s.cap <= 0 {
		return 0
	}
	s.pushFront(i)
	evicted := 0
	for s.linked > s.cap {
		cold := s.tail
		s.unlink(cold)
		s.remove(cold)
		evicted++
	}
	return evicted
}

func (s *slab) pushFront(i uint32) {
	r := &s.recs[i]
	r.prev, r.next = 0, s.head
	if s.head != 0 {
		s.recs[s.head].prev = i
	}
	s.head = i
	if s.tail == 0 {
		s.tail = i
	}
	s.linked++
}

func (s *slab) unlink(i uint32) {
	r := &s.recs[i]
	if r.prev != 0 {
		s.recs[r.prev].next = r.next
	} else {
		s.head = r.next
	}
	if r.next != 0 {
		s.recs[r.next].prev = r.prev
	} else {
		s.tail = r.prev
	}
	r.prev, r.next = 0, 0
	s.linked--
}
