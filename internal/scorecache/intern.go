package scorecache

import (
	"encoding/binary"
	"slices"
	"strings"
	"sync"

	"certa/internal/record"
	"certa/internal/strutil"
)

// The store key format. A record is its name id, its value count and
// one id per value, each a little-endian uint32 word; a nil record is
// the single word nilWord, and a pair is its left record followed by
// its right. Two store keys of one Service are equal exactly when the
// canonical keys are: the interner never gives two strings one id, and
// the words of a store key decode in one way only. A canonical string
// that does not parse as a Key (a hand-written snapshot entry, say)
// keeps an opaque store key instead, opaqueWord followed by the id of
// the whole string; no pair's store key starts with opaqueWord, so the
// two forms never meet.
const (
	nilWord    = ^uint32(0)
	opaqueWord = nilWord - 1
)

// interner assigns each distinct string a uint32 id, for the lifetime
// of its Service: it grows with the distinct names and values keyed
// and does not shrink when the store evicts.
type interner struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string // id -> string; append-only
}

// id returns s's id, assigning the next one to a new string. The
// interner keeps s itself: a token-drop variant shares the bytes of the
// value it was cut from, and a table value is not copied (see idCopy).
func (in *interner) id(s string) uint32 {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return id
	}
	if len(in.strs) >= int(opaqueWord) {
		panic("scorecache: more than 2^32-2 distinct interned strings")
	}
	if in.ids == nil {
		in.ids = make(map[string]uint32)
	}
	id = uint32(len(in.strs))
	in.ids[s] = id
	in.strs = append(in.strs, s)
	return id
}

// idCopy is id for a substring the interner must not retain the
// string around: a new s is copied first.
func (in *interner) idCopy(s string) uint32 {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	if ok {
		return id
	}
	return in.id(strings.Clone(s))
}

// table returns the strings of every id assigned so far. Entries below
// its length are never written again, so the slice may be read without
// the lock while later ids are assigned.
func (in *interner) table() []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.strs
}

func appendWord(b []byte, w uint32) []byte { return binary.LittleEndian.AppendUint32(b, w) }

func writeWord(b *strings.Builder, w uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], w)
	b.Write(buf[:])
}

// word reads the little-endian word at byte offset at of a store key.
func word(key string, at int) uint32 {
	_ = key[at+3]
	return uint32(key[at]) | uint32(key[at+1])<<8 | uint32(key[at+2])<<16 | uint32(key[at+3])<<24
}

// appendRecord appends r's store-key words.
func (s *Service) appendRecord(b []byte, r *record.Record) []byte {
	if r == nil {
		return appendWord(b, nilWord)
	}
	b = appendWord(b, s.strs.id(r.Schema.Name))
	b = appendWord(b, uint32(len(r.Values)))
	for _, v := range r.Values {
		b = appendWord(b, s.strs.id(v))
	}
	return b
}

// key returns p's store key.
func (s *Service) key(p record.Pair) string {
	var buf [64]byte
	b := s.appendRecord(buf[:0], p.Left)
	return string(s.appendRecord(b, p.Right))
}

// tableRecord is a table record's store-key words, resolved once per
// Service and kept with the strings they were resolved from, and the
// ids of its values' token-drop variants (SupportKeyer.Variants),
// derived on first request per attribute. A record mutated after it
// was keyed fails current and gets a fresh tableRecord, which derives
// its variants again. The variant ids live as long as the Service, like
// the interner: they grow with the table records scanned, not with
// uptime.
type tableRecord struct {
	name  string
	vals  []string
	words string

	mu    sync.Mutex // guards drops; taken before the interner's lock
	drops [][]uint32 // per value: its variants' ids, nil until derived
}

// variants returns the ids of strutil.TokenDrops(c.vals[at]), interning
// them through in on the first request for at.
func (c *tableRecord) variants(at int, in *interner) []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.drops == nil {
		c.drops = make([][]uint32, len(c.vals))
	}
	ids := c.drops[at]
	if ids == nil {
		drops := strutil.TokenDrops(c.vals[at])
		ids = make([]uint32, len(drops)) // non-nil even when empty: derived
		for i, d := range drops {
			ids[i] = in.id(d)
		}
		c.drops[at] = ids
	}
	return ids
}

// current reports whether c still holds r's name and values. It
// compares strings with ==, which is O(1) while a string is unchanged
// (the same bytes at the same address), so a record mutated after it
// was keyed fails the check and is keyed from its new values.
func (c *tableRecord) current(r *record.Record) bool {
	return r.Schema.Name == c.name && slices.Equal(r.Values, c.vals)
}

// tableRecord returns r's store-key words from the Service's cache of
// table records (the support scan's candidates), resolving them on
// first use and again whenever the cached record is no longer current.
func (s *Service) tableRecord(r *record.Record) *tableRecord {
	if c, ok := s.records.Load(r); ok {
		if c := c.(*tableRecord); c.current(r) {
			return c
		}
	}
	c := &tableRecord{name: r.Schema.Name, vals: slices.Clone(r.Values), words: string(s.appendRecord(nil, r))}
	s.records.Store(r, c)
	return c
}

// canonical renders a store key as the canonical Key it stands for.
// strs is the interner's table, read after the key was built.
func canonical(key string, strs []string) string {
	if word(key, 0) == opaqueWord {
		return strs[word(key, 4)]
	}
	var b strings.Builder
	rest := renderRecord(&b, key, strs)
	b.WriteByte('|')
	renderRecord(&b, rest, strs)
	return b.String()
}

// renderRecord writes the record at the start of key in canonical form
// and returns the rest of key.
func renderRecord(b *strings.Builder, key string, strs []string) string {
	if word(key, 0) == nilWord {
		b.WriteString(nilRecord)
		return key[4:]
	}
	writeHeader(b, strs[word(key, 0)])
	n := int(word(key, 4))
	for i := 0; i < n; i++ {
		writeValue(b, strs[word(key, 8+4*i)])
	}
	return key[8+4*n:]
}

// parseKey returns the store key of the canonical string c: the ids of
// the pair c spells when c is exactly a Key, and the opaque form
// otherwise. New strings are copied before they are interned, so the
// interner does not retain c.
func (s *Service) parseKey(c string) string {
	left, rest, okLeft := parseRecord(c)
	rest, okBar := strings.CutPrefix(rest, "|")
	right, rest, okRight := parseRecord(rest)
	if !okLeft || !okBar || !okRight || rest != "" {
		return string(appendWord(appendWord(nil, opaqueWord), s.strs.idCopy(c)))
	}
	b := make([]byte, 0, 4*(len(left)+len(right)+2))
	for _, rec := range [2][]string{left, right} {
		if rec == nil {
			b = appendWord(b, nilWord)
			continue
		}
		b = appendWord(b, s.strs.idCopy(rec[0]))
		b = appendWord(b, uint32(len(rec)-1))
		for _, v := range rec[1:] {
			b = appendWord(b, s.strs.idCopy(v))
		}
	}
	return string(b)
}

// parseRecord reads one record from the front of a canonical key,
// accepting exactly what writeRecord writes. It returns the schema name
// followed by the values (nil for a nil record) and the rest of c.
func parseRecord(c string) (rec []string, rest string, ok bool) {
	if strings.HasPrefix(c, nilRecord) {
		return nil, c[len(nilRecord):], true
	}
	name, c, ok := parseFramed(c, '#')
	if !ok {
		return nil, "", false
	}
	rec = []string{name}
	for strings.HasPrefix(c, ";") {
		var v string
		if v, c, ok = parseFramed(c[1:], ':'); !ok {
			return nil, "", false
		}
		rec = append(rec, v)
	}
	return rec, c, true
}

// parseFramed reads a length-framed string: the decimal length, with no
// leading zero, the separator sep and that many bytes.
func parseFramed(c string, sep byte) (v, rest string, ok bool) {
	i, n := 0, 0
	for i < len(c) && '0' <= c[i] && c[i] <= '9' && n <= len(c) {
		n = 10*n + int(c[i]-'0')
		i++
	}
	if i == 0 || (c[0] == '0' && i > 1) || i == len(c) || c[i] != sep || n > len(c)-i-1 {
		return "", "", false
	}
	return c[i+1 : i+1+n], c[i+1+n:], true
}
