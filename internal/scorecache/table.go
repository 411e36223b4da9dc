package scorecache

import "math/bits"

// table is an open-addressing hash table from string keys to values of
// type V that never hashes a key itself. Every operation takes the
// key's 64-bit hash from the caller, which computes it once per score
// question (Service.hash) and carries it through the view's key set,
// the in-batch duplicate checks, the stripe choice and the stripe's
// store (slab). A table borrows its key strings rather than copying
// them, which suits the short-lived key sets of one explanation.
// Each slot keeps the hash beside the key: a lookup compares the
// stored hash and then the full key bytes, so distinct keys with equal
// hashes stay distinct, and growth moves slots by their stored hash
// without re-reading a key.
//
// Probing is linear from a home slot that mixes the hash (Fibonacci
// hashing: multiply, keep the top bits), because every key of one
// stripe shares h % Shards in its low bits. Deletion shifts the rest of
// the probe run back over the hole, so there are no tombstones. The
// zero table is empty and ready to use. Iteration (all) runs in slot
// order, which the hashes and therefore the per-Service seed decide:
// callers that expose keys must sort them.
type table[V any] struct {
	slots []slot[V] // len is 0 or a power of two
	shift uint      // 64 - log2(len(slots))
	n     int       // occupied slots
}

type slot[V any] struct {
	h   uint64 // stored hash; 0 marks an empty slot (see storedHash)
	key string
	val V
}

// minTableSlots is the first allocation of a zero table.
const minTableSlots = 8

// storedHash maps hash 0, which marks empty slots, onto 1.
func storedHash(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

// newTable returns a table that holds hint keys without growing.
func newTable[V any](hint int) table[V] {
	var t table[V]
	size := minTableSlots
	for size*3 < hint*4 {
		size *= 2
	}
	t.resize(size)
	return t
}

// home is h's first probe slot: the top bits of h times 2^64/φ.
func (t *table[V]) home(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the value stored for key, whose hash is h.
func (t *table[V]) get(h uint64, key string) (V, bool) {
	if t.n > 0 {
		h = storedHash(h)
		mask := len(t.slots) - 1
		for i := t.home(h); t.slots[i].h != 0; i = (i + 1) & mask {
			if s := &t.slots[i]; s.h == h && s.key == key {
				return s.val, true
			}
		}
	}
	var zero V
	return zero, false
}

// put stores v for key, whose hash is h, replacing any earlier value.
func (t *table[V]) put(h uint64, key string, v V) {
	// Keep the load at most 3/4, so every probe run ends at an empty slot.
	if (t.n+1)*4 > len(t.slots)*3 {
		t.resize(max(minTableSlots, 2*len(t.slots)))
	}
	h = storedHash(h)
	mask := len(t.slots) - 1
	i := t.home(h)
	for ; t.slots[i].h != 0; i = (i + 1) & mask {
		if s := &t.slots[i]; s.h == h && s.key == key {
			s.val = v
			return
		}
	}
	t.slots[i] = slot[V]{h: h, key: key, val: v}
	t.n++
}

// delete removes key, whose hash is h, and reports whether it was held.
func (t *table[V]) delete(h uint64, key string) bool {
	if t.n == 0 {
		return false
	}
	h = storedHash(h)
	mask := len(t.slots) - 1
	i := t.home(h)
	for ; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.h == 0 {
			return false
		}
		if s.h == h && s.key == key {
			break
		}
	}
	// Close the hole: a later slot of the run moves into it unless its
	// home lies cyclically in (hole, slot], where it must stay reachable.
	for j := (i + 1) & mask; t.slots[j].h != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].h))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.n--
	return true
}

// all yields every key and value in slot order (range-over-func).
func (t *table[V]) all(yield func(key string, v V) bool) {
	for i := range t.slots {
		if s := &t.slots[i]; s.h != 0 && !yield(s.key, s.val) {
			return
		}
	}
}

// resize rebuilds the table with size slots, a power of two that keeps
// the load bound, placing each slot by its stored hash.
func (t *table[V]) resize(size int) {
	old := t.slots
	t.slots = make([]slot[V], size)
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.h == 0 {
			continue
		}
		i := t.home(s.h)
		for t.slots[i].h != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
