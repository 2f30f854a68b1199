package main

import (
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},    // fewer than ten samples beyond even the median
		{19, 0, false},   // 9.5 beyond the median
		{20, 50, true},   // 10 beyond the median
		{99, 50, true},   // 9.9 beyond p90
		{100, 90, true},  // 10 beyond p90
		{999, 90, true},  // 9.99 beyond p99
		{1000, 99, true}, // 10 beyond p99
		{9999, 99, true}, // 9.999 beyond p99.9
		{10000, 99.9, true},
		{100000, 99.99, true},
		{10000000, 99.99, true}, // the highest candidate caps it
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestUsefulRatio(t *testing.T) {
	for _, tc := range []struct {
		name      string
		committed int64
		quorum    int
		attempts  int64
		want      float64
	}{
		{"no waste, no quorum", 40, 0, 40, 1},
		{"one redespatch per chunk", 40, 0, 80, 0.5},
		{"quorum 3, three voters each: base is the majority of 2", 10, 3, 30, 2.0 / 3},
		{"quorum 3, only the majority despatched", 10, 3, 20, 1},
		{"quorum 2 needs both voters", 10, 2, 20, 1},
		{"no attempts", 0, 0, 0, 0},
	} {
		if got := usefulRatio(tc.committed, tc.quorum, tc.attempts); !approxEqual(got, tc.want) {
			t.Errorf("%s: usefulRatio(%d, %d, %d) = %v, want %v", tc.name, tc.committed, tc.quorum, tc.attempts, got, tc.want)
		}
	}
}

func approxEqual(a, b float64) bool { d := a - b; return d < 1e-12 && d > -1e-12 }

func TestSelfTimesOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "farm", Start: at(0), End: at(100)},
		// Two children overlapping on [20, 30]: they cover [10, 40].
		{ID: 2, Parent: 1, Name: "child", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "child", Start: at(20), End: at(40)},
		// A child nested inside another adds nothing to the cover.
		{ID: 4, Parent: 1, Name: "child", Start: at(12), End: at(18)},
		// A child running past the parent's end is clipped to [90, 100].
		{ID: 5, Parent: 1, Name: "late", Start: at(90), End: at(120)},
		// A grandchild is subtracted from its own parent only.
		{ID: 6, Parent: 2, Name: "grandchild", Start: at(10), End: at(15)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"farm":       60 * time.Millisecond,                // 100 - (30 + 10)
		"child":      (20 - 5 + 20 + 6) * time.Millisecond, // span 2 loses the grandchild's 5
		"late":       30 * time.Millisecond,
		"grandchild": 5 * time.Millisecond,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("first quartile = %v, want 2", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}
