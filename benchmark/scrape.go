package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed exposition keyed by the series' rendered identity
// (name plus label block as the server printed it). Two scrapes of one
// registry render a series identically, so the key lines them up for
// deltas.
type scrape map[string]series

// parseExposition reads the Prometheus text format (version 0.0.4):
// comment and blank lines are skipped, label values may contain
// escaped quotes and backslashes, and an optional timestamp after the
// value is ignored.
func parseExposition(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, key, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", lineNo, err)
		}
		out[key] = s
	}
	return out, sc.Err()
}

func parseSample(line string) (series, string, error) {
	s := series{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, "", fmt.Errorf("no value in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.labels)
		if err != nil {
			return s, "", err
		}
		rest = rest[end:]
	}
	key := line[:len(line)-len(rest)]
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, "", fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, "", fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.value = v
	return s, key, nil
}

// parseLabels reads a {k="v",...} block starting at block[0] into
// into, and returns the offset just past the closing brace.
func parseLabels(block string, into map[string]string) (int, error) {
	i := 1
	for {
		for i < len(block) && (block[i] == ',' || block[i] == ' ') {
			i++
		}
		if i >= len(block) {
			return 0, fmt.Errorf("unterminated labels in %q", block)
		}
		if block[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(block[i:], '=')
		if eq < 0 || i+eq+1 >= len(block) || block[i+eq+1] != '"' {
			return 0, fmt.Errorf("malformed label in %q", block)
		}
		key := block[i : i+eq]
		i += eq + 2
		var v strings.Builder
		for ; i < len(block) && block[i] != '"'; i++ {
			if block[i] == '\\' && i+1 < len(block) {
				i++
				switch block[i] {
				case 'n':
					v.WriteByte('\n')
				default:
					v.WriteByte(block[i])
				}
				continue
			}
			v.WriteByte(block[i])
		}
		if i >= len(block) {
			return 0, fmt.Errorf("unterminated label value in %q", block)
		}
		into[key] = v.String()
		i++ // closing quote
	}
}

// delta returns after − before for every series of after; a series new
// since before counts from zero. Gauges are deltas too, so read a
// gauge's level from the later scrape itself.
func delta(before, after scrape) scrape {
	out := make(scrape, len(after))
	for k, s := range after {
		d := s
		d.value -= before[k].value
		out[k] = d
	}
	return out
}

// sum adds every series called name whose labels include all of the
// given key/value pairs.
func (sc scrape) sum(name string, match ...string) float64 {
	var total float64
	for _, s := range sc {
		if s.name == name && s.has(match) {
			total += s.value
		}
	}
	return total
}

// byLabel adds the series called name per value of one label.
func (sc scrape) byLabel(name, label string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range sc {
		if s.name == name {
			out[s.labels[label]] += s.value
		}
	}
	return out
}

// merge folds several scrapes (of different processes) into one sum
// per series; the same series in two processes adds up.
func merge(all ...scrape) scrape {
	out := make(scrape)
	for _, sc := range all {
		for k, s := range sc {
			if prev, ok := out[k]; ok {
				s.value += prev.value
			}
			out[k] = s
		}
	}
	return out
}

func (s series) has(match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if s.labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}
