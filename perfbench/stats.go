package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels string // the raw label set, e.g. `city="a",code="2xx"`
	value  float64
}

// promText is a parsed /metrics scrape.
type promText []promSample

func parseProm(r io.Reader) (promText, error) {
	var out promText
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			s.labels = strings.TrimSuffix(s.name[i+1:], "}")
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds every series of name whose label set contains all of want,
// each a `key="value"` pair; a want of "" selects only the unlabelled
// series.
func (p promText) sum(name string, want ...string) float64 {
	var total float64
	for _, s := range p {
		if s.name != name {
			continue
		}
		ok := true
		for _, w := range want {
			if w == "" && s.labels != "" || w != "" && !strings.Contains(","+s.labels+",", ","+w+",") {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}
