package vote

import (
	"bytes"
	"fmt"
	"sort"

	"partialtor/internal/relay"
)

// The reference implementations below are the straightforward fmt- and
// map-based forms of the vote encoder, the consensus encoder and the
// aggregation algorithm. The production code is an allocation-lean
// rewrite of them; the oracle tests in equivalence_test.go hold the two
// byte for byte equal.

func refEncodeDocument(d *Document) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "network-status-version 3\n")
	fmt.Fprintf(&b, "vote-status vote\n")
	fmt.Fprintf(&b, "valid-after %d\n", d.ValidAfter)
	fmt.Fprintf(&b, "entry-padding %d\n", d.EntryPadding)
	fmt.Fprintf(&b, "dir-source %s %s %d\n", d.AuthorityName, d.Fingerprint, d.AuthorityIndex)
	for i := range d.Relays {
		refEncodeEntry(&b, &d.Relays[i], d.EntryPadding)
	}
	fmt.Fprintf(&b, "directory-footer\n")
	return b.Bytes()
}

func refEncodeEntry(b *bytes.Buffer, r *relay.Descriptor, pad int) {
	start := b.Len()
	fmt.Fprintf(b, "r %s %s %s %s %d %d\n",
		r.Nickname, r.Identity, r.Digest, r.Address, r.ORPort, r.DirPort)
	fmt.Fprintf(b, "s %s\n", r.Flags)
	fmt.Fprintf(b, "v Tor %s\n", r.Version)
	fmt.Fprintf(b, "pr %s\n", r.Protocols)
	if r.HasMeasured {
		fmt.Fprintf(b, "w Bandwidth=%d Measured=%d\n", r.Bandwidth, r.Measured)
	} else {
		fmt.Fprintf(b, "w Bandwidth=%d\n", r.Bandwidth)
	}
	fmt.Fprintf(b, "p %s\n", r.ExitPolicy)
	if pad > 0 {
		used := b.Len() - start
		if need := pad - used - 6; need >= 0 {
			b.WriteString("pad ")
			for i := 0; i < need+1; i++ {
				b.WriteByte('x')
			}
			b.WriteByte('\n')
		}
	}
}

func refEncodeConsensus(c *Consensus) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "network-status-version 3\n")
	fmt.Fprintf(&b, "vote-status consensus\n")
	fmt.Fprintf(&b, "valid-after %d\n", c.ValidAfter)
	fmt.Fprintf(&b, "num-votes %d of %d\n", c.NumVotes, c.TotalAuthorities)
	fmt.Fprintf(&b, "voters")
	for _, v := range c.Voters {
		fmt.Fprintf(&b, " %d", v)
	}
	b.WriteByte('\n')
	for i := range c.Relays {
		r := &c.Relays[i]
		fmt.Fprintf(&b, "r %s %s %s %d %d\n", r.Nickname, r.Identity, r.Address, r.ORPort, r.DirPort)
		fmt.Fprintf(&b, "s %s\n", r.Flags)
		fmt.Fprintf(&b, "v Tor %s\n", r.Version)
		fmt.Fprintf(&b, "pr %s\n", r.Protocols)
		fmt.Fprintf(&b, "w Bandwidth=%d\n", r.Bandwidth)
		fmt.Fprintf(&b, "p %s\n", r.ExitPolicy)
	}
	fmt.Fprintf(&b, "directory-footer\n")
	return b.Bytes()
}

func refAggregate(votes []*Document, totalAuthorities int) (*Consensus, error) {
	if len(votes) == 0 {
		return nil, fmt.Errorf("vote: aggregate of zero votes")
	}
	seen := make(map[int]bool, len(votes))
	for _, v := range votes {
		if v == nil {
			return nil, fmt.Errorf("vote: nil vote document")
		}
		if seen[v.AuthorityIndex] {
			return nil, fmt.Errorf("vote: duplicate vote from authority %d", v.AuthorityIndex)
		}
		seen[v.AuthorityIndex] = true
		if v.ValidAfter != votes[0].ValidAfter {
			return nil, fmt.Errorf("vote: votes for valid-after %d and %d", v.ValidAfter, votes[0].ValidAfter)
		}
	}
	ordered := make([]*Document, len(votes))
	copy(ordered, votes)
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].AuthorityIndex < ordered[j].AuthorityIndex
	})

	n := len(ordered)
	threshold := n / 2
	if threshold < 1 {
		threshold = 1
	}

	type slot struct {
		entries []relay.Descriptor
		voters  []int
	}
	byID := make(map[relay.Identity]*slot)
	var order []relay.Identity
	for _, v := range ordered {
		for i := range v.Relays {
			r := &v.Relays[i]
			s, ok := byID[r.Identity]
			if !ok {
				s = &slot{}
				byID[r.Identity] = s
				order = append(order, r.Identity)
			}
			s.entries = append(s.entries, *r)
			s.voters = append(s.voters, v.AuthorityIndex)
		}
	}
	sort.Slice(order, func(i, j int) bool { return bytes.Compare(order[i][:], order[j][:]) < 0 })

	c := &Consensus{
		ValidAfter:       ordered[0].ValidAfter,
		NumVotes:         n,
		TotalAuthorities: totalAuthorities,
	}
	for _, v := range ordered {
		c.Voters = append(c.Voters, v.AuthorityIndex)
	}
	for _, id := range order {
		s := byID[id]
		if len(s.entries) < threshold {
			continue
		}
		c.Relays = append(c.Relays, refAggregateRelay(id, s.entries, s.voters))
	}
	return c, nil
}

func refAggregateRelay(id relay.Identity, entries []relay.Descriptor, voters []int) ConsensusRelay {
	maxAt := 0
	for i, v := range voters {
		if v > voters[maxAt] {
			maxAt = i
		}
	}
	namer := entries[maxAt]

	out := ConsensusRelay{
		Nickname:  namer.Nickname,
		Identity:  id,
		Address:   namer.Address,
		ORPort:    namer.ORPort,
		DirPort:   namer.DirPort,
		VoteCount: len(entries),
	}
	for _, f := range relay.AllFlags() {
		set := 0
		for _, e := range entries {
			if e.Flags.Has(f) {
				set++
			}
		}
		if 2*set > len(entries) {
			out.Flags |= f
		}
	}
	out.Version = refPopular(entries, func(e relay.Descriptor) string { return e.Version },
		func(a, b string) bool { return relay.CompareVersions(a, b) > 0 })
	out.Protocols = refPopular(entries, func(e relay.Descriptor) string { return e.Protocols },
		func(a, b string) bool { return a > b })
	out.ExitPolicy = refPopular(entries, func(e relay.Descriptor) string { return e.ExitPolicy },
		func(a, b string) bool { return a > b })

	var meas []uint64
	for _, e := range entries {
		if e.HasMeasured {
			meas = append(meas, e.Measured)
		}
	}
	if len(meas) == 0 {
		for _, e := range entries {
			meas = append(meas, e.Bandwidth)
		}
	}
	sort.Slice(meas, func(i, j int) bool { return meas[i] < meas[j] })
	out.Bandwidth = meas[(len(meas)-1)/2]
	return out
}

func refPopular(entries []relay.Descriptor, get func(relay.Descriptor) string, better func(a, b string) bool) string {
	counts := make(map[string]int)
	for _, e := range entries {
		counts[get(e)]++
	}
	best, bestCount := "", -1
	//detlint:maporder ok(argmax with a strict total-order tie-break: better() decides every equal count, so all orders converge)
	for v, c := range counts {
		switch {
		case c > bestCount:
			best, bestCount = v, c
		case c == bestCount && better(v, best):
			best = v
		}
	}
	return best
}
