package scorecache

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// fuzzKeys is FuzzStoreTable's key universe: the empty key, short keys
// and keys of 200 bytes and more, few enough that operations repeat.
var fuzzKeys = func() []string {
	keys := make([]string, 24)
	for i := 1; i < len(keys); i++ {
		if i%4 == 0 {
			keys[i] = strings.Repeat(string(rune('a'+i)), 200+i)
		} else {
			keys[i] = fmt.Sprintf("k%d", i)
		}
	}
	return keys
}()

// FuzzStoreTable drives one store stripe through random sequences of
// insert-and-publish, find, remove and claimed batches that publish
// (with LRU eviction) or fail, and checks it against a map[string]float64
// model with an LRU list beside it. The input's first byte picks the
// capacity (0 is unbounded) and the hash: a constant, a hash with four
// tags (its high half) or a spread one, so probe runs fill with equal
// tags and key bytes decide. After every operation the stripe must
// agree with the model, keep its dead arena bytes at most its live ones
// (compaction) and account every arena byte; at the end a walk of the
// ready records must yield exactly the model.
func FuzzStoreTable(f *testing.F) {
	f.Add([]byte{0x00, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1, 1, 2})
	f.Add([]byte{0x11, 0, 4, 0, 8, 0, 12, 0, 16, 2, 4, 2, 8, 2, 12, 1, 16, 0, 4})
	f.Add([]byte{0x22, 3, 0x03, 1, 2, 3, 4, 3, 0x82, 5, 6, 7, 1, 5, 0, 20, 2, 20, 0, 21})
	f.Add([]byte{0x32, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 1, 1, 1, 6, 0, 7, 0, 8, 3, 3, 9, 10, 11, 12})
	f.Add([]byte{0x01, 0, 4, 0, 8, 0, 12, 0, 16, 0, 20, 2, 4, 2, 8, 2, 12, 2, 16, 0, 1, 0, 2})
	// Unbounded under one probe run: grow the index twice, then remove
	// from the middle of the run and look the rest up.
	grow := []byte{0x00}
	for i := byte(0); i < 24; i++ {
		grow = append(grow, 0, i)
	}
	for i := byte(1); i < 24; i += 3 {
		grow = append(grow, 2, i)
	}
	for i := byte(0); i < 24; i++ {
		grow = append(grow, 1, i)
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0] >> 4 % 4) // 0 (unbounded) to 3
		hash := []func(string) uint64{
			func(string) uint64 { return 0 },
			func(k string) uint64 { return ShardHash(k) % 4 << 32 },
			ShardHash,
		}[int(data[0]&0x0f)%3]
		data = data[1:]

		s := &slab{cap: capacity}
		model := map[string]float64{}
		var lru []string // ready keys, most recent first (capacity > 0 only)
		publish := func(r uint32, k string, score float64) {
			s.recs[r].score = score
			s.recs[r].claim = nil
			evicted := s.link(r)
			model[k] = score
			if capacity == 0 {
				return
			}
			lru = append([]string{k}, lru...)
			for len(lru) > capacity {
				delete(model, lru[len(lru)-1])
				lru = lru[:len(lru)-1]
				evicted--
			}
			if evicted != 0 {
				t.Fatalf("link evicted %d records more than the model", evicted)
			}
		}
		find := func(k string) (uint32, bool) {
			r, ok := s.find(hash(k), k)
			want, inModel := model[k]
			if ok != inModel {
				t.Fatalf("find(%.20q) = %v, model holds it: %v", k, ok, inModel)
			}
			if ok && (s.recs[r].claim != nil || s.recs[r].score != want || string(s.key(r)) != k) {
				t.Fatalf("find(%.20q) returned record %d holding %.20q, score %v, want score %v", k, r, s.key(r), s.recs[r].score, want)
			}
			return r, ok
		}

		for op := 0; len(data) >= 2; op++ {
			code, k := data[0], fuzzKeys[int(data[1])%len(fuzzKeys)]
			data = data[2:]
			switch code % 4 {
			case 0: // insert and publish, unless held
				if _, ok := find(k); !ok {
					publish(s.insert(hash(k), k), k, float64(op))
				}
			case 1: // find, which touches a bounded stripe's LRU
				if r, ok := find(k); ok && capacity > 0 {
					s.touch(r)
					i := slices.Index(lru, k)
					lru = append([]string{k}, slices.Delete(lru, i, i+1)...)
				}
			case 2: // remove
				if r, ok := find(k); ok {
					if capacity > 0 {
						s.unlink(r)
						i := slices.Index(lru, k)
						lru = slices.Delete(lru, i, i+1)
					}
					s.remove(r)
					delete(model, k)
				}
			case 3: // claim k and the next up to three bytes' keys where absent, then publish or fail them
				cands := []string{k}
				for n := int(code >> 2 & 3); n > 0 && len(data) > 0; n-- {
					cands = append(cands, fuzzKeys[int(data[0])%len(fuzzKeys)])
					data = data[1:]
				}
				var keys []string
				var recs []uint32
				c := &claim{}
				for _, k := range cands {
					if slices.Contains(keys, k) {
						continue
					}
					if _, ok := find(k); ok {
						continue
					}
					r := s.insert(hash(k), k)
					s.recs[r].claim = c
					keys = append(keys, k)
					recs = append(recs, r)
				}
				if s.n != len(model)+len(keys) {
					t.Fatalf("op %d: %d used records with %d pending, model holds %d", op, s.n, len(keys), len(model))
				}
				for j, r := range recs {
					if code&0x80 != 0 {
						s.remove(r)
					} else {
						publish(r, keys[j], float64(op)+float64(j)/8)
					}
				}
			}

			if s.n != len(model) {
				t.Fatalf("op %d: %d used records, model holds %d", op, s.n, len(model))
			}
			if capacity > 0 && s.linked != len(lru) {
				t.Fatalf("op %d: %d linked records, model LRU holds %d", op, s.linked, len(lru))
			}
			live := 0
			for _, k := range fuzzKeys {
				if _, ok := model[k]; ok {
					live += len(k)
				}
			}
			if len(s.keys)-s.dead != live || s.dead > live {
				t.Fatalf("op %d: arena of %d bytes with %d dead, model keys hold %d", op, len(s.keys), s.dead, live)
			}
		}

		for k := range model {
			find(k)
		}
		var walked []string
		for r := range s.ready {
			walked = append(walked, string(s.key(r)))
		}
		if len(walked) != len(model) {
			t.Fatalf("walk yields %d ready records, model holds %d", len(walked), len(model))
		}
		for _, k := range walked {
			if _, ok := model[k]; !ok {
				t.Fatalf("walk yields %.20q, which the model does not hold", k)
			}
		}
		if capacity > 0 {
			var order []string
			for r := s.head; r != 0; r = s.recs[r].next {
				order = append(order, string(s.key(r)))
			}
			if !slices.Equal(order, lru) {
				t.Fatalf("LRU order %q, model %q", order, lru)
			}
		}
	})
}
