package scorecache

import (
	"hash/maphash"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// TestTableMatchesMapReference runs the stored-hash table against a
// map[string]int through random put, overwrite, get and delete, with
// enough inserts to grow it several times and enough deletes to shrink
// its runs. The hash functions force collisions: a constant hash (every
// key on one probe run, every lookup deciding on key bytes) and a
// small-modulus hash, next to a real seeded one. Hash 0, which the
// table reserves for empty slots, comes up under both forcing hashes.
func TestTableMatchesMapReference(t *testing.T) {
	seed := maphash.MakeSeed()
	hashes := map[string]func(string) uint64{
		"constant": func(string) uint64 { return 0 },
		"mod5":     func(k string) uint64 { return maphash.String(seed, k) % 5 },
		"maphash":  func(k string) uint64 { return maphash.String(seed, k) },
	}
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			var tab table[int]
			ref := map[string]int{}
			key := func() string {
				if rng.Intn(50) == 0 {
					return "" // the empty key is a key like any other
				}
				return "k" + strconv.Itoa(rng.Intn(400))
			}
			for op := 0; op < 20000; op++ {
				k := key()
				switch r := rng.Intn(10); {
				case r < 5: // put: insert or overwrite
					tab.put(hash(k), k, op)
					ref[k] = op
				case r < 8:
					got, ok := tab.get(hash(k), k)
					want, wantOK := ref[k]
					if ok != wantOK || got != want {
						t.Fatalf("op %d: get(%q) = (%d, %v), reference (%d, %v)", op, k, got, ok, want, wantOK)
					}
				default:
					_, wantOK := ref[k]
					if ok := tab.delete(hash(k), k); ok != wantOK {
						t.Fatalf("op %d: delete(%q) = %v, reference %v", op, k, ok, wantOK)
					}
					delete(ref, k)
				}
				if tab.n != len(ref) {
					t.Fatalf("op %d: table holds %d keys, reference %d", op, tab.n, len(ref))
				}
			}
			// Every reference key is reachable, and iteration yields
			// exactly the reference contents.
			for k, want := range ref {
				if got, ok := tab.get(hash(k), k); !ok || got != want {
					t.Fatalf("final get(%q) = (%d, %v), want %d", k, got, ok, want)
				}
			}
			var keys []string
			for k, v := range tab.all {
				if ref[k] != v {
					t.Fatalf("all yields %q=%d, reference %d", k, v, ref[k])
				}
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for i := 1; i < len(keys); i++ {
				if keys[i] == keys[i-1] {
					t.Fatalf("all yields %q twice", keys[i])
				}
			}
			if len(keys) != len(ref) {
				t.Fatalf("all yields %d keys, reference holds %d", len(keys), len(ref))
			}
		})
	}
}
