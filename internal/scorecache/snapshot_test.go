package scorecache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"certa/internal/record"
)

// warmService scores n distinct pairs through a fresh service and
// returns it with its model.
func warmService(t testing.TB, n int) (*Service, *countingModel) {
	t.Helper()
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	pairs := make([]record.Pair, n)
	for i := range pairs {
		pairs[i] = pairOf(fmt.Sprintf("val-%03d", i), "x")
	}
	svc.ScoreBatch(pairs)
	return svc, m
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	svc, _ := warmService(t, 25)
	if got := svc.Len(); got != 25 {
		t.Fatalf("Len() = %d, want 25", got)
	}

	var buf bytes.Buffer
	n, err := svc.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Fatalf("Snapshot wrote %d entries, want 25", n)
	}

	// A second snapshot of the same store is byte-identical (sorted keys).
	var buf2 bytes.Buffer
	if _, err := svc.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshots of an unchanged store differ")
	}

	// Restore into a fresh service: every stored pair is answered without
	// a model invocation.
	m2 := &countingModel{}
	restored := NewService(m2, ServiceOptions{})
	got, err := restored.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != 25 {
		t.Fatalf("Restore installed %d entries, want 25", got)
	}
	for i := 0; i < 25; i++ {
		p := pairOf(fmt.Sprintf("val-%03d", i), "x")
		if want, g := svc.Score(p), restored.Score(p); g != want {
			t.Fatalf("restored score %v != original %v for pair %d", g, want, i)
		}
	}
	if m2.calls != 0 {
		t.Fatalf("restored service invoked the model %d times for snapshotted pairs", m2.calls)
	}
	st := restored.Stats()
	if st.Hits != 25 || st.Misses != 0 {
		t.Fatalf("restored service stats = %+v, want 25 hits, 0 misses", st)
	}
}

func TestRestoreKeepsExistingEntries(t *testing.T) {
	svc, _ := warmService(t, 5)
	var buf bytes.Buffer
	if _, err := svc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	m := &countingModel{}
	target := NewService(m, ServiceOptions{})
	p := pairOf("val-000", "x")
	live := target.Score(p) // scored before the restore arrives
	if n, err := target.Restore(bytes.NewReader(buf.Bytes())); err != nil || n != 4 {
		t.Fatalf("Restore = (%d, %v), want (4, nil): existing key must be kept", n, err)
	}
	if got := target.Score(p); got != live {
		t.Fatalf("restore overwrote a live entry: %v != %v", got, live)
	}
}

func TestRestoreRespectsCapacity(t *testing.T) {
	svc, _ := warmService(t, 40)
	var buf bytes.Buffer
	if _, err := svc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	bounded := NewService(&countingModel{}, ServiceOptions{Capacity: 8, Shards: 1})
	if _, err := bounded.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := bounded.Len(); got > 8 {
		t.Fatalf("bounded service holds %d entries after restore, capacity 8", got)
	}
	if bounded.Stats().Evictions == 0 {
		t.Fatal("restore past the capacity bound recorded no evictions")
	}
}

// TestRestoreRejectsCorruption is the snapshot fuzz seed: a snapshot
// with any single byte flipped — magic, count, length frames, keys,
// scores or the checksum itself — must be rejected with an error and
// leave the service cold and usable. It must never panic and never
// install a partial snapshot.
func TestRestoreRejectsCorruption(t *testing.T) {
	svc, _ := warmService(t, 10)
	var buf bytes.Buffer
	if _, err := svc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	for i := range snap {
		corrupted := append([]byte(nil), snap...)
		corrupted[i] ^= 0xFF
		m := &countingModel{}
		target := NewService(m, ServiceOptions{})
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Restore panicked on byte %d flipped: %v", i, r)
				}
			}()
			n, err := target.Restore(bytes.NewReader(corrupted))
			if err == nil {
				t.Fatalf("Restore accepted snapshot with byte %d flipped", i)
			}
			if n != 0 {
				t.Fatalf("Restore reported %d installed entries alongside error %v", n, err)
			}
		}()
		// Cold start: the rejected restore left nothing behind and the
		// service still scores.
		if got := target.Len(); got != 0 {
			t.Fatalf("byte %d: %d entries installed from a corrupted snapshot", i, got)
		}
		target.Score(pairOf("after-corruption", "x"))
		if m.calls != 1 {
			t.Fatalf("byte %d: service unusable after rejected restore (%d model calls)", i, m.calls)
		}
	}
}

func TestRestoreRejectsTruncation(t *testing.T) {
	svc, _ := warmService(t, 10)
	var buf bytes.Buffer
	if _, err := svc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	for n := 0; n < len(snap); n++ {
		target := NewService(&countingModel{}, ServiceOptions{})
		if _, err := target.Restore(bytes.NewReader(snap[:n])); err == nil {
			t.Fatalf("Restore accepted snapshot truncated to %d/%d bytes", n, len(snap))
		}
		if got := target.Len(); got != 0 {
			t.Fatalf("truncation at %d: %d entries installed", n, got)
		}
	}
}

// TestRestoreFuncKeepsOnlyFilteredKeys covers the shard-filtered
// restore path a ring joiner uses: consume a donor's full snapshot,
// install only the keys a placement predicate accepts, and answer
// exactly those without model calls afterwards.
func TestRestoreFuncKeepsOnlyFilteredKeys(t *testing.T) {
	svc, _ := warmService(t, 20)
	var buf bytes.Buffer
	if _, err := svc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Split on a high hash bit: the low bit of FNV-1a is linear in the
	// input bytes, and these fixture keys repeat their varying bytes on
	// both pair sides, which would make a %2 split degenerate.
	keep := func(key string) bool { return ShardHash(key)>>33&1 == 0 }
	want := 0
	for _, k := range svc.Keys() {
		if keep(k) {
			want++
		}
	}
	if want == 0 || want == 20 {
		t.Fatalf("degenerate filter split %d/20; pick different fixture keys", want)
	}

	m := &countingModel{}
	target := NewService(m, ServiceOptions{})
	n, err := target.RestoreFunc(bytes.NewReader(buf.Bytes()), keep)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("RestoreFunc installed %d entries, filter accepts %d", n, want)
	}
	if got := target.Len(); got != want {
		t.Fatalf("Len() = %d after filtered restore, want %d", got, want)
	}
	for _, k := range target.Keys() {
		if !keep(k) {
			t.Fatalf("filtered restore installed rejected key %q", k)
		}
	}
	// Kept keys answer without the model; dropped keys still cost a call.
	for i := 0; i < 20; i++ {
		p := pairOf(fmt.Sprintf("val-%03d", i), "x")
		before := m.calls
		target.Score(p)
		paid := m.calls - before
		if kept := keep(Key(p)); kept && paid != 0 {
			t.Fatalf("pair %d: kept key paid %d model calls", i, paid)
		} else if !kept && paid == 0 {
			t.Fatalf("pair %d: dropped key was answered without the model", i)
		}
	}
}

// TestRestoreFuncRejectsCorruptionBeforeFiltering: a corrupt stream is
// rejected identically with a filter attached, and the keep predicate
// is never consulted — filtering happens strictly after verification.
func TestRestoreFuncRejectsCorruptionBeforeFiltering(t *testing.T) {
	svc, _ := warmService(t, 6)
	var buf bytes.Buffer
	if _, err := svc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	for _, i := range []int{0, len(snap) / 2, len(snap) - 1} {
		corrupted := append([]byte(nil), snap...)
		corrupted[i] ^= 0xFF
		target := NewService(&countingModel{}, ServiceOptions{})
		kept := 0
		n, err := target.RestoreFunc(bytes.NewReader(corrupted), func(string) bool { kept++; return true })
		if err == nil || n != 0 {
			t.Fatalf("byte %d: filtered restore accepted corruption (n=%d err=%v)", i, n, err)
		}
		if kept != 0 {
			t.Fatalf("byte %d: keep ran %d times on an unverified stream", i, kept)
		}
		if target.Len() != 0 {
			t.Fatalf("byte %d: corrupt filtered restore installed entries", i)
		}
	}
}

// TestKeysMatchesSnapshotContents: Keys reports exactly the ready
// entries, sorted — the enumeration cluster capacity planning leans on.
func TestKeysMatchesSnapshotContents(t *testing.T) {
	svc, _ := warmService(t, 9)
	keys := svc.Keys()
	if len(keys) != 9 {
		t.Fatalf("Keys() returned %d keys, want 9", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("Keys() not strictly sorted at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
	want := make(map[string]bool, 9)
	for i := 0; i < 9; i++ {
		want[Key(pairOf(fmt.Sprintf("val-%03d", i), "x"))] = true
	}
	for _, k := range keys {
		if !want[k] {
			t.Fatalf("Keys() returned unexpected key %q", k)
		}
	}
}

func TestRestoreRejectsHugeKeyLength(t *testing.T) {
	// A handcrafted header claiming one entry with a multi-gigabyte key
	// must fail on the length sanity bound, not attempt the allocation.
	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	buf.Write([]byte{1, 0, 0, 0, 0, 0, 0, 0}) // count = 1
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // keyLen = 4 GiB
	target := NewService(&countingModel{}, ServiceOptions{})
	if _, err := target.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("Restore accepted a 4 GiB key length frame")
	}
}

// FuzzRestore feeds Restore two kinds of input. Raw bytes (framed
// false) probe the parser and the checksum. Fuzz-chosen keys and scores
// (framed true) are framed into a valid snapshot by fuzzSnapshot, which
// computes magic, count and CRC itself, so they pass the checksum and
// reach the install and evict path. Every input is restored into an
// unbounded service and a Capacity 2, one-stripe service.
// TestRestoreRejectsCorruption and TestRestoreRejectsTruncation remain
// the exhaustive sweeps over one snapshot's flips and cuts.
func FuzzRestore(f *testing.F) {
	svc, _ := warmService(f, 6)
	var buf bytes.Buffer
	if _, err := svc.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	snap := buf.Bytes()
	f.Add(false, snap)
	for _, i := range []int{0, 8, 16, len(snap) / 2, len(snap) - 1} {
		flipped := append([]byte(nil), snap...)
		flipped[i] ^= 0xFF
		f.Add(false, flipped)
	}
	for _, n := range []int{0, 12, len(snap) / 2, len(snap) - 1} {
		f.Add(false, snap[:n])
	}
	f.Add(true, fuzzEntry(fuzzEntry(fuzzEntry(nil, "dup", 0.1), "x", 0.2), "dup", 0.9))
	f.Add(true, fuzzEntry(fuzzEntry(nil, "", 0.5), "a", math.NaN()))
	f.Add(true, fuzzEntry(fuzzEntry(fuzzEntry(nil, "a", 0.3), "b", 0.6), "c", 0.7))

	f.Fuzz(func(t *testing.T, framed bool, data []byte) {
		input := data
		if framed {
			input = fuzzSnapshot(data)
		}
		for _, opts := range []ServiceOptions{{}, {Capacity: 2, Shards: 1}} {
			checkRestore(t, input, opts)
		}
	})
}

// checkRestore restores input into a fresh service and checks the
// outcome: a rejected input installs nothing and leaves a working
// service; an accepted one leaves sorted, duplicate-free keys within
// the capacity bound, keeps each key's first score when unbounded, and
// snapshots to bytes that restore and snapshot again unchanged.
func checkRestore(t *testing.T, input []byte, opts ServiceOptions) {
	m := &countingModel{}
	svc := NewService(m, opts)
	n, err := svc.Restore(bytes.NewReader(input))
	if err != nil {
		if n != 0 || svc.Len() != 0 {
			t.Fatalf("%+v: rejected input (%v) installed %d entries, Len %d", opts, err, n, svc.Len())
		}
		svc.Score(pairOf("after-reject", "x"))
		if m.calls != 1 {
			t.Fatalf("%+v: service made %d model calls after a rejected restore, want 1", opts, m.calls)
		}
		return
	}

	keys := svc.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("%+v: Keys() not sorted and duplicate-free at %d: %q, %q", opts, i, keys[i-1], keys[i])
		}
	}
	if svc.Len() != len(keys) {
		t.Fatalf("%+v: Len() = %d, Keys() has %d", opts, svc.Len(), len(keys))
	}
	if opts.Capacity > 0 {
		perShard := (opts.Capacity + opts.Shards - 1) / opts.Shards
		if bound := opts.Shards * perShard; svc.Len() > bound {
			t.Fatalf("%+v: Len() = %d past the bound %d", opts, svc.Len(), bound)
		}
	}

	var out bytes.Buffer
	if _, err := svc.Snapshot(&out); err != nil {
		t.Fatal(err)
	}
	if opts.Capacity == 0 {
		first := map[string]uint64{}
		for _, e := range snapshotEntries(input) {
			if _, ok := first[e.key]; !ok {
				first[e.key] = e.bits
			}
		}
		stored := snapshotEntries(out.Bytes())
		if n != len(first) || len(stored) != len(first) {
			t.Fatalf("installed %d, stored %d, input holds %d distinct keys", n, len(stored), len(first))
		}
		for _, e := range stored {
			if want, ok := first[e.key]; !ok || e.bits != want {
				t.Fatalf("key %q stored score bits %x, first occurrence %x (present %v)", e.key, e.bits, want, ok)
			}
		}
	}
	again := NewService(&countingModel{}, opts)
	if _, err := again.Restore(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("%+v: restoring a snapshot of an accepted input: %v", opts, err)
	}
	var out2 bytes.Buffer
	if _, err := again.Snapshot(&out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Fatalf("%+v: Snapshot -> Restore -> Snapshot changed the bytes", opts)
	}
}

// fuzzEntry appends one framed-fuzz entry: a length byte, the key and
// the score's 8 bytes (keys are at most 255 bytes).
func fuzzEntry(data []byte, key string, score float64) []byte {
	data = append(data, byte(len(key)))
	data = append(data, key...)
	return binary.LittleEndian.AppendUint64(data, math.Float64bits(score))
}

// fuzzSnapshot frames data, read as fuzzEntry records (the last one cut
// short where data ends, its score zero-padded), into a snapshot that
// passes the checksum: keys may repeat, be empty or come unsorted.
func fuzzSnapshot(data []byte) []byte {
	var body []byte
	count := uint64(0)
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		key := data[1 : 1+n]
		data = data[1+n:]
		var score [8]byte
		data = data[copy(score[:], data):]
		body = binary.LittleEndian.AppendUint32(body, uint32(len(key)))
		body = append(body, key...)
		body = append(body, score[:]...)
		count++
	}
	counted := binary.LittleEndian.AppendUint64(nil, count)
	out := append(append([]byte(nil), snapshotMagic[:]...), counted...)
	out = append(out, body...)
	crc := crc32.Update(crc32.ChecksumIEEE(counted), crc32.IEEETable, body)
	return binary.LittleEndian.AppendUint32(out, crc)
}

type snapshotEntry struct {
	key  string
	bits uint64
}

// snapshotEntries lists the entries of a snapshot Restore accepted, in
// file order.
func snapshotEntries(b []byte) []snapshotEntry {
	b = b[len(snapshotMagic):]
	count := binary.LittleEndian.Uint64(b)
	b = b[8:]
	var out []snapshotEntry
	for i := uint64(0); i < count; i++ {
		n := binary.LittleEndian.Uint32(b)
		key := string(b[4 : 4+n])
		b = b[4+n:]
		out = append(out, snapshotEntry{key: key, bits: binary.LittleEndian.Uint64(b)})
		b = b[8:]
	}
	return out
}
