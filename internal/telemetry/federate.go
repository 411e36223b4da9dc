package telemetry

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the media type of the text exposition (version 0.0.4).
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Exposition is one parsed text exposition, its families in the order
// they first appeared.
type Exposition struct {
	Families []*Family
}

// Family is one metric family: HELP text as written (escaped), TYPE
// (counter, gauge, histogram or untyped, as a Registry writes) and its
// samples, a histogram's _bucket, _sum and _count ones included.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Sample is one sample line. Value is the value text as written, so a
// merge passes every number through untouched: plain-decimal counts
// stay plain decimal.
type Sample struct {
	Name   string
	Labels Labels
	Value  string
}

// Scrape GETs a /v1/metrics URL with client and reads the answer with
// ReadExposition; a status other than 200 is an error.
func Scrape(ctx context.Context, client *http.Client, url string) (*Exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return ReadExposition(resp.Body)
}

// ReadExposition parses a text exposition strictly. Every line must end
// in a newline, so a body cut off mid-transfer is an error rather than
// a shorter scrape; sample and label syntax must be well formed, and a
// value must be one float (the registry writes no timestamps). Comments
// other than HELP and TYPE are skipped.
func ReadExposition(r io.Reader) (*Exposition, error) {
	rd := reader{byName: make(map[string]*Family)}
	br := bufio.NewReader(r)
	for n := 1; ; n++ {
		line, err := br.ReadString('\n')
		switch {
		case err == io.EOF && line == "":
			return &rd.exp, nil
		case err == io.EOF:
			return nil, fmt.Errorf("exposition line %d: truncated (no trailing newline)", n)
		case err != nil:
			return nil, err
		}
		if err := rd.line(line[:len(line)-1]); err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", n, err)
		}
	}
}

type reader struct {
	exp    Exposition
	byName map[string]*Family
}

func (rd *reader) family(name string) *Family {
	f := rd.byName[name]
	if f == nil {
		f = &Family{Name: name, Type: "untyped"}
		rd.byName[name] = f
		rd.exp.Families = append(rd.exp.Families, f)
	}
	return f
}

func (rd *reader) line(line string) error {
	if comment, ok := strings.CutPrefix(line, "# "); ok {
		keyword, rest, _ := strings.Cut(comment, " ")
		name, text, _ := strings.Cut(rest, " ")
		switch {
		case keyword != "HELP" && keyword != "TYPE":
		case !validMetricName(name):
			return fmt.Errorf("%s for invalid metric name %q", keyword, name)
		case keyword == "HELP":
			rd.family(name).Help = text
		case text == "counter" || text == "gauge" || text == "histogram" || text == "untyped":
			rd.family(name).Type = text
		default:
			return fmt.Errorf("unknown TYPE %q for %s", text, name)
		}
		return nil
	}
	if line == "" || line[0] == '#' {
		return nil
	}
	s, err := parseSample(line)
	if err != nil {
		return err
	}
	f := rd.byName[s.Name]
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(s.Name, suffix)
		if b := rd.byName[base]; ok && f == nil && b != nil && b.Type == "histogram" {
			f = b
		}
	}
	if f == nil {
		f = rd.family(s.Name)
	}
	f.Samples = append(f.Samples, s)
	return nil
}

func parseSample(line string) (Sample, error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return Sample{}, fmt.Errorf("no value in %q", line)
	}
	s, rest := Sample{Name: line[:i]}, line[i:]
	if rest[0] == '{' {
		var err error
		if s.Labels, rest, err = parseLabels(rest[1:]); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
	}
	value, ok := strings.CutPrefix(rest, " ")
	if _, err := strconv.ParseFloat(value, 64); !ok || err != nil || !validMetricName(s.Name) {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Value = value
	return s, nil
}

// parseLabels reads the label pairs of a block whose opening brace is
// already consumed and returns what follows its closing brace.
func parseLabels(block string) (Labels, string, error) {
	labels := Labels{}
	for {
		if rest, ok := strings.CutPrefix(block, "}"); ok {
			return labels, rest, nil
		}
		name, rest, ok := strings.Cut(block, `="`)
		if !ok || !validMetricName(name) {
			return nil, "", fmt.Errorf("malformed label")
		}
		var v strings.Builder
		for ; rest != "" && rest[0] != '"'; rest = rest[1:] {
			c := rest[0]
			if c == '\\' && len(rest) > 1 {
				rest = rest[1:]
				switch c = rest[0]; c {
				case 'n':
					c = '\n'
				case '\\', '"':
				default:
					return nil, "", fmt.Errorf("bad escape in label %s", name)
				}
			}
			v.WriteByte(c)
		}
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label %s", name)
		}
		labels[name] = v.String()
		if block = rest[1:]; !strings.HasPrefix(block, "}") {
			if block, ok = strings.CutPrefix(block, ","); !ok {
				return nil, "", fmt.Errorf("no comma after label %s", name)
			}
		}
	}
}

// AddLabel sets name=value on every sample, the way a federating
// scraper attributes series to their source. A sample that already
// carries the label keeps its own value as exported_<name>.
func (e *Exposition) AddLabel(name, value string) {
	for _, f := range e.Families {
		for i := range f.Samples {
			s := &f.Samples[i]
			if old, ok := s.Labels[name]; ok {
				s.Labels["exported_"+name] = old
			} else if s.Labels == nil {
				s.Labels = Labels{}
			}
			s.Labels[name] = value
		}
	}
}

// Family returns the named family, or nil when the exposition has none.
func (e *Exposition) Family(name string) *Family {
	for _, f := range e.Families {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Sum adds the values of every sample called name whose labels include
// each pair of match (nil matches every sample).
func (e *Exposition) Sum(name string, match Labels) float64 {
	var total float64
	for _, f := range e.Families {
		for _, s := range f.Samples {
			ok := s.Name == name
			for k, v := range match {
				ok = ok && s.Labels[k] == v
			}
			if ok {
				v, _ := strconv.ParseFloat(s.Value, 64) // validated by ReadExposition
				total += v
			}
		}
	}
	return total
}

// WriteMerged writes several expositions as one: families merged by
// name and sorted, each with one HELP and one TYPE line, then every
// exposition's samples of it in argument order, labels in canonical
// (sorted) order and value text verbatim. HELP comes from the first
// exposition that has one, TYPE from the first that has the family; a
// later exposition whose TYPE disagrees has that family left out rather
// than written under the wrong type. Nil expositions are skipped.
func WriteMerged(w io.Writer, exps ...*Exposition) error {
	merged := make(map[string]*Family)
	var names []string
	for _, e := range exps {
		if e == nil {
			continue
		}
		for _, f := range e.Families {
			m := merged[f.Name]
			if m == nil {
				m = &Family{Name: f.Name, Help: f.Help, Type: f.Type}
				merged[f.Name] = m
				names = append(names, f.Name)
			} else if m.Type != f.Type {
				continue
			}
			if m.Help == "" {
				m.Help = f.Help
			}
			m.Samples = append(m.Samples, f.Samples...)
		}
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := merged[name]
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			fmt.Fprintf(bw, "%s%s %s\n", s.Name, renderLabels(s.Labels), s.Value)
		}
	}
	return bw.Flush()
}
