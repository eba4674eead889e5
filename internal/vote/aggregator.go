package vote

import "encoding/binary"

// Aggregator computes consensus documents and remembers them: each distinct
// vote set is aggregated once, and every later request for the same set
// returns the same *Consensus. Aggregation is a pure function of the votes
// and the authority count, so a remembered document is the one a fresh
// Aggregate would build; the memo only saves repeated work. The returned
// document is shared by every caller that asked for its vote set and must
// not be modified.
//
// A vote set is identified by its authority count and its (authority index,
// vote digest) pairs in index order. The digest commits to everything
// aggregation reads, is what every protocol signs and agrees on, and is
// already computed by the time a vote is aggregated, so the key costs no
// hashing; decoded copies of a vote share their original's digest and hit.
//
// The zero value is ready to use. An Aggregator is not safe for concurrent
// use. Build one per protocol instance and share it among that instance's
// authorities, which a simulation runs on one goroutine; never share one
// between concurrently running instances.
type Aggregator struct {
	memo  map[string]*Consensus
	key   []byte // reused buffer for the memo key
	calls int
}

// Aggregate returns what Aggregate(votes, totalAuthorities) would, computing
// each distinct vote set once. Invalid sets are rejected with Aggregate's
// errors on every call and never remembered.
func (g *Aggregator) Aggregate(votes []*Document, totalAuthorities int) (*Consensus, error) {
	ordered, err := orderVotes(votes)
	if err != nil {
		return nil, err
	}
	key := binary.BigEndian.AppendUint64(g.key[:0], uint64(totalAuthorities))
	for _, v := range ordered {
		key = binary.BigEndian.AppendUint64(key, uint64(v.AuthorityIndex))
		d := v.Digest()
		key = append(key, d[:]...)
	}
	g.key = key
	if c, ok := g.memo[string(key)]; ok {
		return c, nil
	}
	g.calls++
	c := aggregate(ordered, totalAuthorities)
	if g.memo == nil {
		g.memo = make(map[string]*Consensus)
	}
	g.memo[string(key)] = c
	return c, nil
}

// Aggregations returns how many vote sets the aggregator actually
// aggregated: one per distinct valid set it was asked for.
func (g *Aggregator) Aggregations() int { return g.calls }
