package service

import (
	"testing"

	"consumergrid/internal/types"
)

// TestResultDigestProperties: the digest is deterministic, sensitive to
// any output or state difference, and insensitive to state map
// iteration order (keys are canonically sorted).
func TestResultDigestProperties(t *testing.T) {
	outs := []types.Data{
		&types.Spectrum{Resolution: 1, Amplitudes: []float64{1, 2, 3}},
		&types.Vec{Values: []float64{4, 5}},
	}
	state := map[string][]byte{"a": {1, 2}, "b": {3}}

	d1, err := resultDigest(outs, state)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := resultDigest(outs, state)
	if err != nil || d1 != d2 {
		t.Fatalf("digest not deterministic: %q vs %q (%v)", d1, d2, err)
	}

	flipped := []types.Data{
		&types.Spectrum{Resolution: 1, Amplitudes: []float64{1, 2, 3.0000001}},
		&types.Vec{Values: []float64{4, 5}},
	}
	if d3, _ := resultDigest(flipped, state); d3 == d1 {
		t.Error("digest blind to an output value change")
	}
	if d4, _ := resultDigest(outs, map[string][]byte{"a": {1, 2}, "b": {4}}); d4 == d1 {
		t.Error("digest blind to a state value change")
	}
	if d5, _ := resultDigest(outs, nil); d5 == d1 {
		t.Error("digest blind to missing state")
	}
	// Framing is injective: moving a byte between adjacent state values
	// must change the digest even though the concatenation is identical.
	a := map[string][]byte{"k1": {1, 2}, "k2": {3}}
	b := map[string][]byte{"k1": {1}, "k2": {2, 3}}
	da, _ := resultDigest(nil, a)
	db, _ := resultDigest(nil, b)
	if da == db {
		t.Error("length-prefix framing failed: shifted state bytes collide")
	}
	if den, _ := resultDigest(nil, nil); den == "" {
		t.Error("empty result has no digest")
	}
}

// FuzzResultDigest feeds the comparator adversarial wire payloads — the
// bytes a byzantine peer actually controls. Whatever arrives (truncated,
// oversized, bit-flipped), the digest must never panic, and equal inputs
// must digest equally while payload differences are detected.
func FuzzResultDigest(f *testing.F) {
	good, _ := types.Marshal(&types.Spectrum{Resolution: 2, Amplitudes: []float64{1, 2}})
	f.Add(good, "state-key", []byte{1, 2, 3})
	f.Add([]byte{}, "", []byte{})
	f.Add(good[:len(good)/2], "trunc", []byte(nil))
	f.Add(append(append([]byte{}, good...), 0xff, 0x00, 0xff), "oversize", []byte{9})

	f.Fuzz(func(t *testing.T, payload []byte, key string, sval []byte) {
		// The quorum path only digests data that survived the wire codec;
		// replicate that: undecodable payloads are failed attempts, not
		// digest inputs.
		var outs []types.Data
		if d, err := types.Unmarshal(payload); err == nil {
			outs = append(outs, d)
		}
		state := map[string][]byte{key: sval}
		d1, err1 := resultDigest(outs, state)
		d2, err2 := resultDigest(outs, state)
		if (err1 == nil) != (err2 == nil) || d1 != d2 {
			t.Fatalf("digest not stable: (%q,%v) vs (%q,%v)", d1, err1, d2, err2)
		}
		if err1 == nil && len(d1) != 64 {
			t.Fatalf("digest %q is not a sha256 hex string", d1)
		}
		// A flipped tail byte in the state — the simnet byzantine fault —
		// must always be detected.
		if len(sval) > 0 {
			corrupt := append([]byte{}, sval...)
			corrupt[len(corrupt)-1] ^= 0xff
			dc, errc := resultDigest(outs, map[string][]byte{key: corrupt})
			if errc == nil && err1 == nil && dc == d1 {
				t.Fatal("digest blind to a flipped state byte")
			}
		}
	})
}

// TestTally: the vote tally picks the digest with the most ballots,
// breaking ties towards the lexically smallest digest so the verdict
// never depends on arrival order. The despatch loop commits when that
// count reaches need, widens by one voter when it does not and a fresh
// candidate remains, and fails otherwise; ballots off the best digest
// take the byzantine penalty either way.
func TestTally(t *testing.T) {
	cases := []struct {
		name       string
		digests    []string
		need       int
		fresh      int // candidates left to widen with
		best       string
		votes      int
		outcome    string
		dissenters int
	}{
		{"single result", []string{""}, 1, 0, "", 1, "commit", 0},
		{"unanimous", []string{"a", "a", "a"}, 2, 1, "a", 3, "commit", 0},
		{"majority", []string{"b", "a", "b"}, 2, 1, "b", 2, "commit", 1},
		{"majority arrives last", []string{"c", "b", "b"}, 2, 0, "b", 2, "commit", 1},
		{"widened majority", []string{"x", "y", "z", "y"}, 2, 0, "y", 2, "commit", 2},
		{"two of two", []string{"a", "a"}, 2, 0, "a", 2, "commit", 0},
		{"split pair", []string{"b", "a"}, 2, 2, "a", 1, "widen", 1},
		{"three-way split", []string{"c", "a", "b"}, 2, 1, "a", 1, "widen", 2},
		{"lone ballot", []string{"a"}, 2, 1, "a", 1, "widen", 0},
		{"terminal three-way split", []string{"c", "a", "b"}, 2, 0, "a", 1, "fail", 2},
		{"tie below need", []string{"b", "b", "a", "a"}, 3, 0, "a", 2, "fail", 2},
		{"no ballots", nil, 2, 0, "", 0, "fail", 0},
	}
	for _, tc := range cases {
		ballots := make([]ballot, len(tc.digests))
		for i, d := range tc.digests {
			ballots[i].digest = d
		}
		best, votes := tally(ballots)
		if best != tc.best || votes != tc.votes {
			t.Errorf("%s: tally = (%q, %d), want (%q, %d)", tc.name, best, votes, tc.best, tc.votes)
		}
		outcome := "fail"
		switch {
		case votes >= tc.need:
			outcome = "commit"
		case tc.fresh > 0:
			outcome = "widen"
		}
		if outcome != tc.outcome {
			t.Errorf("%s: outcome %s, want %s", tc.name, outcome, tc.outcome)
		}
		dissenters := 0
		for _, b := range ballots {
			if b.digest != best {
				dissenters++
			}
		}
		if dissenters != tc.dissenters {
			t.Errorf("%s: %d dissenters, want %d", tc.name, dissenters, tc.dissenters)
		}
		// Arrival order never changes the verdict.
		for i, j := 0, len(ballots)-1; i < j; i, j = i+1, j-1 {
			ballots[i], ballots[j] = ballots[j], ballots[i]
		}
		if rb, rv := tally(ballots); rb != best || rv != votes {
			t.Errorf("%s: reversed tally = (%q, %d), want (%q, %d)", tc.name, rb, rv, best, votes)
		}
	}
}
