package live

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition sample line.
type Sample struct {
	// Name is the sample's full name (histogram series keep their
	// _bucket/_sum/_count suffix).
	Name string
	// Labels are the sample's labels in source order.
	Labels []Label
	// Value is the sample value.
	Value float64
}

// Label returns the value of the named label ("" when absent).
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Parse reads a Prometheus text-format (v0.0.4) exposition document and
// returns its samples, validating as it goes. It rejects what a strict
// scraper would: invalid metric or label names, malformed label syntax,
// unparseable values, an unknown TYPE, a TYPE or HELP line after the
// family's first sample, duplicate TYPE/HELP lines, duplicate series
// (same name and label set twice), and histograms whose cumulative
// buckets decrease, lack a +Inf bucket, or disagree with _count.
func Parse(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var samples []Sample
	seenSeries := make(map[string]int) // name + label set -> line
	typeOf := make(map[string]string)  // family -> type
	helpOf := make(map[string]bool)    // family -> HELP seen
	familySampled := make(map[string]bool)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseMetaLine(line, lineNo, typeOf, helpOf, familySampled); err != nil {
				return nil, err
			}
			continue
		}
		s, err := parseSampleLine(line, lineNo)
		if err != nil {
			return nil, err
		}
		fam := familyOf(s.Name, typeOf)
		familySampled[fam] = true
		key := s.Name + "\x00" + canonicalLabels(s.Labels)
		if prev, dup := seenSeries[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s (first at line %d)", lineNo, s.Name, prev)
		}
		seenSeries[key] = lineNo
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := checkHistograms(samples, typeOf); err != nil {
		return nil, err
	}
	return samples, nil
}

// parseMetaLine handles # HELP / # TYPE lines (other comments pass).
func parseMetaLine(line string, lineNo int, typeOf map[string]string, helpOf, familySampled map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("line %d: malformed TYPE line", lineNo)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !ValidName(name) {
			return fmt.Errorf("line %d: invalid metric name %q in TYPE line", lineNo, name)
		}
		switch typ {
		case TypeCounter, TypeGauge, TypeHistogram, "summary", "untyped":
		default:
			return fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
		}
		if _, dup := typeOf[name]; dup {
			return fmt.Errorf("line %d: duplicate TYPE line for %s", lineNo, name)
		}
		if familySampled[name] {
			return fmt.Errorf("line %d: TYPE line for %s after its samples", lineNo, name)
		}
		typeOf[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("line %d: malformed HELP line", lineNo)
		}
		name := fields[2]
		if !ValidName(name) {
			return fmt.Errorf("line %d: invalid metric name %q in HELP line", lineNo, name)
		}
		if helpOf[name] {
			return fmt.Errorf("line %d: duplicate HELP line for %s", lineNo, name)
		}
		if familySampled[name] {
			return fmt.Errorf("line %d: HELP line for %s after its samples", lineNo, name)
		}
		helpOf[name] = true
	}
	return nil
}

// parseSampleLine parses `name{label="value",...} value [timestamp]`.
func parseSampleLine(line string, lineNo int) (Sample, error) {
	var s Sample
	rest := line
	brace := strings.IndexByte(rest, '{')
	space := strings.IndexByte(rest, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		s.Name = rest[:brace]
		rest = rest[brace+1:]
		labels, tail, err := parseLabels(rest, lineNo)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	} else {
		if space < 0 {
			return s, fmt.Errorf("line %d: sample line has no value", lineNo)
		}
		s.Name = rest[:space]
		rest = rest[space:]
	}
	if !ValidName(s.Name) {
		return s, fmt.Errorf("line %d: invalid metric name %q", lineNo, s.Name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("line %d: want value [timestamp] after series, got %q", lineNo, strings.TrimSpace(rest))
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("line %d: bad sample value %q", lineNo, fields[0])
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("line %d: bad timestamp %q", lineNo, fields[1])
		}
	}
	return s, nil
}

// parseLabels consumes `label="value",...}` and returns the remainder of
// the line after the closing brace.
func parseLabels(rest string, lineNo int) ([]Label, string, error) {
	var labels []Label
	for {
		rest = strings.TrimLeft(rest, " \t")
		if rest == "" {
			return nil, "", fmt.Errorf("line %d: unterminated label set", lineNo)
		}
		if rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("line %d: label without =", lineNo)
		}
		name := strings.TrimSpace(rest[:eq])
		if !ValidLabel(name) && name != "le" && name != "quantile" {
			return nil, "", fmt.Errorf("line %d: invalid label name %q", lineNo, name)
		}
		rest = rest[eq+1:]
		if rest == "" || rest[0] != '"' {
			return nil, "", fmt.Errorf("line %d: label %s value is not quoted", lineNo, name)
		}
		rest = rest[1:]
		var val strings.Builder
		for {
			if rest == "" {
				return nil, "", fmt.Errorf("line %d: unterminated label value for %s", lineNo, name)
			}
			c := rest[0]
			if c == '"' {
				rest = rest[1:]
				break
			}
			if c == '\\' {
				if len(rest) < 2 {
					return nil, "", fmt.Errorf("line %d: dangling escape in label %s", lineNo, name)
				}
				switch rest[1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("line %d: bad escape \\%c in label %s", lineNo, rest[1], name)
				}
				rest = rest[2:]
				continue
			}
			val.WriteByte(c)
			rest = rest[1:]
		}
		labels = append(labels, Label{Name: name, Value: val.String()})
		rest = strings.TrimLeft(rest, " \t")
		if rest != "" && rest[0] == ',' {
			rest = rest[1:]
		}
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "nan":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// familyOf strips a histogram sample suffix when the base family is
// declared as a histogram, so _bucket/_sum/_count samples attach to it.
func familyOf(name string, typeOf map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if typeOf[base] == TypeHistogram {
				return base
			}
		}
	}
	return name
}

// canonicalLabels renders a sorted label key for duplicate detection.
func canonicalLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l.Name)
		b.WriteByte('\xfe')
		b.WriteString(l.Value)
		b.WriteByte('\xff')
	}
	return b.String()
}

// checkHistograms verifies every declared histogram family: per series
// group, bucket le bounds parse and ascend, cumulative counts never
// decrease, a +Inf bucket exists, and its count equals the _count sample.
func checkHistograms(samples []Sample, typeOf map[string]string) error {
	type group struct {
		les    []float64
		cums   []float64
		hasInf bool
		infVal float64
		count  float64
		seenCt bool
	}
	groups := make(map[string]*group)
	key := func(base string, labels []Label) string {
		var kept []Label
		for _, l := range labels {
			if l.Name != "le" {
				kept = append(kept, l)
			}
		}
		return base + "\x00" + canonicalLabels(kept)
	}
	for _, s := range samples {
		if base, ok := strings.CutSuffix(s.Name, "_bucket"); ok && typeOf[base] == TypeHistogram {
			g := groups[key(base, s.Labels)]
			if g == nil {
				g = &group{}
				groups[key(base, s.Labels)] = g
			}
			le := s.Label("le")
			if le == "" {
				return fmt.Errorf("histogram %s has a bucket without an le label", base)
			}
			b, err := parseValue(le)
			if err != nil {
				return fmt.Errorf("histogram %s has unparseable le %q", base, le)
			}
			if math.IsInf(b, 1) {
				g.hasInf = true
				g.infVal = s.Value
			} else {
				g.les = append(g.les, b)
				g.cums = append(g.cums, s.Value)
			}
			continue
		}
		if base, ok := strings.CutSuffix(s.Name, "_count"); ok && typeOf[base] == TypeHistogram {
			g := groups[key(base, s.Labels)]
			if g == nil {
				g = &group{}
				groups[key(base, s.Labels)] = g
			}
			g.count = s.Value
			g.seenCt = true
		}
	}
	for k, g := range groups {
		base := k[:strings.IndexByte(k, '\x00')]
		prev := math.Inf(-1)
		var prevCum float64
		for i, le := range g.les {
			if le <= prev {
				return fmt.Errorf("histogram %s buckets out of order (le %g after %g)", base, le, prev)
			}
			if g.cums[i] < prevCum {
				return fmt.Errorf("histogram %s cumulative bucket counts decrease at le %g", base, le)
			}
			prev, prevCum = le, g.cums[i]
		}
		if !g.hasInf {
			return fmt.Errorf("histogram %s has no +Inf bucket", base)
		}
		if g.infVal < prevCum {
			return fmt.Errorf("histogram %s +Inf bucket below its last finite bucket", base)
		}
		if g.seenCt && g.infVal != g.count {
			return fmt.Errorf("histogram %s +Inf bucket %g disagrees with _count %g", base, g.infVal, g.count)
		}
	}
	return nil
}
