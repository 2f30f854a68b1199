package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidates for a timing's reported tail.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile returns the highest percentile in tailPercentiles
// that still has at least ten samples beyond it among n samples, and
// false when even the median has fewer than ten beyond it. A tail
// estimated from fewer than ten samples is one or two outliers, not a
// percentile.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		beyond := float64(n) * (1 - p/100)
		if beyond >= 10-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// usefulRatio is committed attempts over all despatch attempts. The
// base: a chunk commits on k agreeing attempts, k = 1 without a quorum
// and the majority quorum/2+1 with one, so a run with no waste reads 1
// and every re-despatch, speculative loser or surplus voter lowers it.
// It reads 0 when there were no attempts.
func usefulRatio(committedChunks int64, quorum int, attempts int64) float64 {
	if attempts <= 0 {
		return 0
	}
	k := int64(1)
	if quorum > 1 {
		k = int64(quorum/2 + 1)
	}
	return float64(committedChunks*k) / float64(attempts)
}

// span is one timed call made by the benchmark's own code.
type span struct {
	ID     int64
	Parent int64 // 0 for a root
	Name   string
	Farm   string // farm the span belongs to, "" for grid-level probes
	Start  time.Time
	End    time.Time
}

// selfTimes returns each span name's total self time: a span's
// duration minus the part of its interval that its children cover.
// Children may overlap one another; the covered part is their union,
// clipped to the parent, so overlapping children are not subtracted
// twice.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals inside
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
