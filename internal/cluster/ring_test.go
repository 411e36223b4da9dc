package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"certa/internal/scorecache"
)

func fourMembers() []Member {
	return []Member{
		{Name: "w0", URL: "http://127.0.0.1:9000"},
		{Name: "w1", URL: "http://127.0.0.1:9001"},
		{Name: "w2", URL: "http://127.0.0.1:9002"},
		{Name: "w3", URL: "http://127.0.0.1:9003"},
	}
}

// TestRingDeterministic: rings built from the same membership place
// every key identically, regardless of the order members were listed
// in — the property that lets routers and workers compute placement
// independently.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing(fourMembers(), 64)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []Member{
		{Name: "w2", URL: "http://127.0.0.1:9002"},
		{Name: "w0", URL: "http://127.0.0.1:9000"},
		{Name: "w3", URL: "http://127.0.0.1:9003"},
		{Name: "w1", URL: "http://127.0.0.1:9001"},
	}
	b, err := NewRing(shuffled, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%04d", i)
		h := scorecache.ShardHash(key)
		if a.Owner(h) != b.Owner(h) {
			t.Fatalf("key %q: owner %v vs %v across identically-membered rings", key, a.Owner(h), b.Owner(h))
		}
		if !reflect.DeepEqual(a.Replicas(h), b.Replicas(h)) {
			t.Fatalf("key %q: replica lists diverge", key)
		}
	}
}

// TestRingPinnedPlacement pins the owner of fixed keys on a fixed
// 4-member/64-vnode ring. Placement is a cross-process contract (a
// router and a snapshot-filtering worker must agree without talking),
// so these literals may only change together with a deliberate ring
// migration.
func TestRingPinnedPlacement(t *testing.T) {
	r, err := NewRing(fourMembers(), 64)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, key := range []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"} {
		got[key] = r.Owner(scorecache.ShardHash(key)).Name
	}
	want := map[string]string{
		"alpha":   "w2",
		"bravo":   "w2",
		"charlie": "w2",
		"delta":   "w0",
		"echo":    "w3",
		"foxtrot": "w1",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned placement drifted:\ngot  %v\nwant %v", got, want)
	}
}

// TestRingReplicasDistinctAndComplete: the preference list starts at
// the owner and visits every member exactly once.
func TestRingReplicasDistinctAndComplete(t *testing.T) {
	r, err := NewRing(fourMembers(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		h := scorecache.ShardHash(fmt.Sprintf("k%d", i))
		reps := r.Replicas(h)
		if len(reps) != 4 {
			t.Fatalf("hash %#x: %d replicas, want 4", h, len(reps))
		}
		if reps[0] != r.Owner(h) {
			t.Fatalf("hash %#x: first replica %v is not the owner %v", h, reps[0], r.Owner(h))
		}
		seen := map[string]bool{}
		for _, m := range reps {
			if seen[m.Name] {
				t.Fatalf("hash %#x: member %s repeated in replica list", h, m.Name)
			}
			seen[m.Name] = true
		}
	}
}

// TestRingBalance: with virtual nodes, a synthetic keyspace spreads
// within a reasonable factor of even across 4 members.
func TestRingBalance(t *testing.T) {
	r, err := NewRing(fourMembers(), DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[r.Owner(scorecache.ShardHash(fmt.Sprintf("pair-content-%06d", i))).Name]++
	}
	for _, m := range r.Members() {
		c := counts[m.Name]
		if c < n/4/2 || c > n/4*2 {
			t.Fatalf("member %s owns %d of %d keys (want within 2x of %d); distribution %v",
				m.Name, c, n, n/4, counts)
		}
	}
}

// TestRingOwnershipPartitions: OwnsKey assigns every key to exactly
// one member — the invariant shard-filtered snapshot restores rely on
// (shards are disjoint and cover the keyspace).
func TestRingOwnershipPartitions(t *testing.T) {
	r, err := NewRing(fourMembers(), 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		owners := 0
		for _, m := range r.Members() {
			if r.OwnsKey(m.Name, key) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %q owned by %d members", key, owners)
		}
	}
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 8); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, err := NewRing([]Member{{Name: "", URL: "http://x"}}, 8); err == nil {
		t.Fatal("unnamed member accepted")
	}
	if _, err := NewRing([]Member{{Name: "w", URL: ""}}, 8); err == nil {
		t.Fatal("URL-less member accepted")
	}
	if _, err := NewRing([]Member{{Name: "w", URL: "http://a"}, {Name: "w", URL: "http://b"}}, 8); err == nil {
		t.Fatal("duplicate member name accepted")
	}
}

func TestParseMembers(t *testing.T) {
	got, err := ParseMembers("http://a:1, w9=http://b:2/ ,http://c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{
		{Name: "w0", URL: "http://a:1"},
		{Name: "w9", URL: "http://b:2"},
		{Name: "w2", URL: "http://c:3"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseMembers = %v, want %v", got, want)
	}
	if _, err := ParseMembers(""); err == nil {
		t.Fatal("empty workers list accepted")
	}
	if _, err := ParseMembers("name="); err == nil {
		t.Fatal("URL-less entry accepted")
	}
}

// FuzzRing checks the placement invariants on arbitrary -workers
// strings, virtual-node counts and keys: the preference list is a
// permutation of the members that starts at the owner, exactly one
// member owns the key and KeepOwned agrees, and placement does not
// depend on the order the members are listed in. Input ParseMembers or
// NewRing rejects must come back as an error, never a panic.
func FuzzRing(f *testing.F) {
	f.Add("w0=http://127.0.0.1:8081,w1=http://127.0.0.1:8082", 64, "alpha")  // README
	f.Add("w0=http://127.0.0.1:41001,w1=http://127.0.0.1:41002", 0, "l7|r7") // ringsmoke
	f.Add("http://a:1, w9=http://b:2/ ,http://c:3", 8, "key-0001")
	f.Add("w=http://a,w=http://b", 4, "duplicate name")
	f.Add("=http://a,w1=http://b", 4, "empty name")
	f.Add("w0=http://a,", 4, "trailing comma")
	f.Fuzz(func(t *testing.T, workers string, vnodes int, key string) {
		members, err := ParseMembers(workers)
		if err != nil {
			return
		}
		vnodes = int(uint(vnodes) % 33) // at most 32 per member; 0 means the default
		r, err := NewRing(members, vnodes)
		if err != nil {
			return
		}
		h := scorecache.ShardHash(key)
		idx := r.ReplicaIndexes(h)
		seen := make([]bool, r.Size())
		for _, i := range idx {
			if i < 0 || i >= r.Size() || seen[i] {
				t.Fatalf("replica indexes %v are not a permutation of 0..%d", idx, r.Size()-1)
			}
			seen[i] = true
		}
		if len(idx) != r.Size() {
			t.Fatalf("replica indexes %v miss members of a %d-member ring", idx, r.Size())
		}
		if owner := r.Owner(h); owner != r.Members()[idx[0]] {
			t.Fatalf("owner %v is not the first replica %v", owner, r.Members()[idx[0]])
		}
		owners := 0
		for _, m := range r.Members() {
			owns := r.OwnsKey(m.Name, key)
			if KeepOwned(r, m.Name)(key) != owns {
				t.Fatalf("KeepOwned and OwnsKey disagree for %s", m.Name)
			}
			if owns {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("%d members own key %q", owners, key)
		}
		reversed := append([]Member(nil), members...)
		slices.Reverse(reversed)
		rr, err := NewRing(reversed, vnodes)
		if err != nil {
			t.Fatalf("reversed membership rejected: %v", err)
		}
		var names, reversedNames []string
		for _, m := range r.Replicas(h) {
			names = append(names, m.Name)
		}
		for _, m := range rr.Replicas(h) {
			reversedNames = append(reversedNames, m.Name)
		}
		if !slices.Equal(names, reversedNames) {
			t.Fatalf("replicas %v, over the reversed member list %v", names, reversedNames)
		}
	})
}
