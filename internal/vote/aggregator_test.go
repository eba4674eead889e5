package vote

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// setName identifies a vote set the way the aggregator must tell sets
// apart: by its authority count and its (authority, vote digest) pairs,
// whatever the input order and whichever copies of the votes it holds.
func setName(votes []*Document, total int) string {
	parts := make([]string, len(votes))
	for i, v := range votes {
		parts[i] = fmt.Sprintf("%d:%x", v.AuthorityIndex, v.Digest())
	}
	slices.Sort(parts)
	return fmt.Sprint(total, parts)
}

// sameConsensus fails unless got is the consensus want describes, field by
// field and byte for byte.
func sameConsensus(t *testing.T, what string, got, want *Consensus) {
	t.Helper()
	if got.ValidAfter != want.ValidAfter || got.NumVotes != want.NumVotes ||
		got.TotalAuthorities != want.TotalAuthorities || !slices.Equal(got.Voters, want.Voters) {
		t.Fatalf("%s: header (valid-after %d, %d votes of %d, voters %v), want (%d, %d of %d, %v)", what,
			got.ValidAfter, got.NumVotes, got.TotalAuthorities, got.Voters,
			want.ValidAfter, want.NumVotes, want.TotalAuthorities, want.Voters)
	}
	if !slices.Equal(got.Relays, want.Relays) {
		t.Fatalf("%s: relays\n got %+v\nwant %+v", what, got.Relays, want.Relays)
	}
	if !bytes.Equal(got.Encode(), refEncodeConsensus(want)) {
		t.Fatalf("%s: consensus encoding differs from reference", what)
	}
}

// equivocate returns votes with one vote replaced by a copy that lists one
// relay differently (or one more relay, if it lists none).
func equivocate(rng *rand.Rand, votes []*Document) []*Document {
	out := slices.Clone(votes)
	i := rng.Intn(len(out))
	alt := mkVote(out[i].AuthorityIndex, slices.Clone(out[i].Relays)...)
	alt.ValidAfter = out[i].ValidAfter
	if len(alt.Relays) == 0 {
		alt.Relays = append(alt.Relays, mkRelay(200, nil))
	} else {
		alt.Relays[rng.Intn(len(alt.Relays))].Bandwidth += 10
	}
	out[i] = alt
	return out
}

// TestAggregatorMatchesReference drives one aggregator through random vote
// sets and their variants, as the authorities of one run would: every
// answer must equal the reference aggregation and uncached Aggregate, a set
// already seen (in any order, through any copies of its votes) must return
// the remembered document without aggregating again, and every other set
// must be aggregated afresh.
func TestAggregatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var agg Aggregator
	byName := make(map[string]*Consensus)
	nameOf := make(map[*Consensus]string)
	check := func(what string, votes []*Document, total int) *Consensus {
		t.Helper()
		got, err := agg.Aggregate(votes, total)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, err := refAggregate(votes, total)
		if err != nil {
			t.Fatalf("%s: reference: %v", what, err)
		}
		sameConsensus(t, what, got, want)
		fresh, err := Aggregate(votes, total)
		if err != nil {
			t.Fatalf("%s: uncached: %v", what, err)
		}
		if got.Digest() != fresh.Digest() {
			t.Fatalf("%s: consensus digest differs from uncached Aggregate", what)
		}
		name := setName(votes, total)
		if prev, ok := byName[name]; ok && got != prev {
			t.Fatalf("%s: a set seen before was aggregated again", what)
		}
		if other, ok := nameOf[got]; ok && other != name {
			t.Fatalf("%s: returned the document of a different vote set", what)
		}
		byName[name], nameOf[got] = got, name
		if agg.Aggregations() != len(byName) {
			t.Fatalf("%s: %d aggregations for %d distinct vote sets", what, agg.Aggregations(), len(byName))
		}
		return got
	}

	var seen [][]*Document
	for trial := 0; trial < 300; trial++ {
		n := []int{1, 2, 9}[trial%3]
		if trial%2 == 1 {
			n = 1 + rng.Intn(9)
		}
		votes := randomVotes(rng, n)
		c := check(fmt.Sprintf("trial %d", trial), votes, 9)

		shuffled := slices.Clone(votes)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if check(fmt.Sprintf("trial %d shuffled", trial), shuffled, 9) != c {
			t.Fatalf("trial %d: shuffled set not served from the memo", trial)
		}

		decoded := make([]*Document, n)
		for i, v := range votes {
			d, err := Parse(v.Encode())
			if err != nil {
				t.Fatal(err)
			}
			decoded[i] = d
		}
		if check(fmt.Sprintf("trial %d decoded", trial), decoded, 9) != c {
			t.Fatalf("trial %d: decoded copies not served from the memo", trial)
		}

		if n > 1 {
			if check(fmt.Sprintf("trial %d subset", trial), votes[1:], 9) == c {
				t.Fatalf("trial %d: subset served the full set's document", trial)
			}
		}
		if check(fmt.Sprintf("trial %d equivocated", trial), equivocate(rng, votes), 9) == c {
			t.Fatalf("trial %d: equivocated set served the original's document", trial)
		}
		if check(fmt.Sprintf("trial %d total", trial), votes, 10) == c {
			t.Fatalf("trial %d: another authority count served the same document", trial)
		}
		if len(seen) > 0 {
			check(fmt.Sprintf("trial %d repeat", trial), seen[rng.Intn(len(seen))], 9)
		}
		seen = append(seen, votes)
	}
}

// TestAggregatorKeysOnAuthorityIndex: the memo key holds each vote's
// authority index in its own right, not only through the digest. Two votes
// that carry the same digest but come from different authorities (a copy
// made after encoding, standing in for a digest collision) are different
// vote sets with different voters.
func TestAggregatorKeysOnAuthorityIndex(t *testing.T) {
	var agg Aggregator
	v := mkVote(2, mkRelay(1, nil))
	v.Encode()
	moved := *v
	moved.AuthorityIndex = 5
	if v.Digest() != moved.Digest() {
		t.Fatal("copy does not share the original's digest")
	}
	for _, d := range []*Document{v, &moved} {
		got, err := agg.Aggregate([]*Document{d}, 9)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Aggregate([]*Document{d}, 9)
		sameConsensus(t, fmt.Sprintf("authority %d", d.AuthorityIndex), got, want)
	}
	if agg.Aggregations() != 2 {
		t.Fatalf("%d aggregations, want 2", agg.Aggregations())
	}
}

// TestAggregatorErrorsNeverMemoized: invalid vote sets get Aggregate's
// error on every call and leave nothing behind in the memo.
func TestAggregatorErrorsNeverMemoized(t *testing.T) {
	var agg Aggregator
	for _, tc := range aggregateErrorCases() {
		_, want := Aggregate(tc.votes, 9)
		if want == nil {
			t.Fatalf("%s: Aggregate accepted", tc.name)
		}
		for try := 0; try < 2; try++ {
			c, err := agg.Aggregate(tc.votes, 9)
			if c != nil || err == nil || err.Error() != want.Error() {
				t.Fatalf("%s try %d: got (%v, %v), want error %q", tc.name, try, c, err, want)
			}
		}
	}
	if agg.Aggregations() != 0 || len(agg.memo) != 0 {
		t.Fatalf("rejected sets left %d aggregations and %d memo entries", agg.Aggregations(), len(agg.memo))
	}
	votes := []*Document{mkVote(0, mkRelay(1, nil)), mkVote(1, mkRelay(1, nil))}
	if _, err := agg.Aggregate(votes, 9); err != nil || agg.Aggregations() != 1 {
		t.Fatalf("valid set after errors: err %v, %d aggregations", err, agg.Aggregations())
	}
}
