package vote

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

// ConsensusRelay is one relay entry of the aggregated consensus document.
type ConsensusRelay struct {
	Nickname   string
	Identity   relay.Identity
	Address    string
	ORPort     uint16
	DirPort    uint16
	Flags      relay.Flags
	Version    string
	Protocols  string
	ExitPolicy string
	Bandwidth  uint64
	VoteCount  int // how many votes listed this relay
}

// Consensus is the aggregated consensus document.
type Consensus struct {
	ValidAfter       uint64
	NumVotes         int
	TotalAuthorities int
	Voters           []int // authority indices whose votes were aggregated
	Relays           []ConsensusRelay

	// encoded caches the rendered document and digest its SHA-256; Encode
	// sets both together, so clearing encoded also invalidates digest.
	encoded []byte
	digest  sig.Digest
}

// allFlags is relay.AllFlags, built once for the per-relay flag vote.
var allFlags = relay.AllFlags()

// Aggregate combines status votes into a consensus document following the
// paper's Figure 2. votes must be non-empty, from distinct authorities and
// of one epoch; totalAuthorities is the size of the authority set (9 for
// Tor). Aggregate computes the document afresh on every call; the protocols
// aggregate through an Aggregator, which computes each distinct vote set
// once.
func Aggregate(votes []*Document, totalAuthorities int) (*Consensus, error) {
	ordered, err := orderVotes(votes)
	if err != nil {
		return nil, err
	}
	return aggregate(ordered, totalAuthorities), nil
}

// orderVotes checks a vote set and returns a copy of it sorted by authority
// index, the deterministic processing order whatever the input order.
func orderVotes(votes []*Document) ([]*Document, error) {
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
		// votes[0] passed the nil check first. One consensus covers one
		// epoch: votes for another valid-after cannot be stamped with it.
		if v.ValidAfter != votes[0].ValidAfter {
			return nil, fmt.Errorf("vote: vote from authority %d is for valid-after %d, vote from authority %d for %d",
				v.AuthorityIndex, v.ValidAfter, votes[0].AuthorityIndex, votes[0].ValidAfter)
		}
	}
	ordered := make([]*Document, len(votes))
	copy(ordered, votes)
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].AuthorityIndex < ordered[j].AuthorityIndex
	})
	return ordered, nil
}

// aggregate computes the consensus of a checked vote set sorted by
// authority index.
func aggregate(ordered []*Document, totalAuthorities int) *Consensus {
	n := len(ordered)
	threshold := n / 2 // "at least ⌊n/2⌋ votes" (Figure 2)
	if threshold < 1 {
		threshold = 1
	}

	// Pass 1: give each identity a slot, count its listings and remember
	// every listing's slot. Both passes walk the votes from the largest
	// authority ID down, so each slot starts with the listing that names
	// the relay.
	total := 0
	for _, v := range ordered {
		total += len(v.Relays)
	}
	slotOf := make(map[relay.Identity]int, len(ordered[0].Relays))
	var ids []relay.Identity
	var counts []int
	listingSlot := make([]int, 0, total)
	for _, v := range slices.Backward(ordered) {
		for i := range v.Relays {
			id := v.Relays[i].Identity
			s, ok := slotOf[id]
			if !ok {
				s = len(ids)
				slotOf[id] = s
				ids = append(ids, id)
				counts = append(counts, 0)
			}
			counts[s]++
			listingSlot = append(listingSlot, s)
		}
	}
	// Pass 2: lay the slots out back to back in one array of pointers into
	// the votes.
	start := make([]int, len(ids)+1)
	for s, c := range counts {
		start[s+1] = start[s] + c
	}
	fill := append([]int(nil), start[:len(ids)]...)
	entries := make([]*relay.Descriptor, total)
	k := 0
	for _, v := range slices.Backward(ordered) {
		for i := range v.Relays {
			s := listingSlot[k]
			entries[fill[s]] = &v.Relays[i]
			fill[s]++
			k++
		}
	}

	order := make([]int, len(ids))
	for s := range order {
		order[s] = s
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(ids[a][:], ids[b][:]) })

	c := &Consensus{
		ValidAfter:       ordered[0].ValidAfter,
		NumVotes:         n,
		TotalAuthorities: totalAuthorities,
		Voters:           make([]int, n),
		Relays:           make([]ConsensusRelay, 0, len(ids)),
	}
	for i, v := range ordered {
		c.Voters[i] = v.AuthorityIndex
	}
	scratch := aggScratch{vals: make([]string, 0, n), bw: make([]uint64, 0, n)}
	for _, s := range order {
		if counts[s] < threshold {
			continue
		}
		c.Relays = append(c.Relays, scratch.aggregateRelay(ids[s], entries[start[s]:start[s+1]]))
	}
	return c
}

// aggScratch is space reused across the relays of one Aggregate call.
type aggScratch struct {
	vals []string
	bw   []uint64
}

// aggregateRelay applies the per-relay rules of Figure 2 to the entries
// listing one relay, ordered by descending authority ID.
func (sc *aggScratch) aggregateRelay(id relay.Identity, entries []*relay.Descriptor) ConsensusRelay {
	// Name (and endpoint) from the vote with the largest authority ID.
	namer := entries[0]

	out := ConsensusRelay{
		Nickname:  namer.Nickname,
		Identity:  id,
		Address:   namer.Address,
		ORPort:    namer.ORPort,
		DirPort:   namer.DirPort,
		VoteCount: len(entries),
	}

	// Flags: popular vote among listing votes; a tie leaves the flag unset.
	for _, f := range allFlags {
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

	// Version, protocols, exit policy: popular vote; ties broken by the
	// largest version / largest protocol string / lexicographically larger
	// policy.
	out.Version = popular(sc.field(entries, versionOf), newerVersion)
	out.Protocols = popular(sc.field(entries, protocolsOf), greater)
	out.ExitPolicy = popular(sc.field(entries, exitPolicyOf), greater)

	// Bandwidth: median of the votes that measured the relay (low median,
	// as Tor computes it); fall back to the median of advertised values.
	meas := sc.bw[:0]
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
	slices.Sort(meas)
	out.Bandwidth = meas[(len(meas)-1)/2]
	return out
}

// field collects one string field of every entry into reused space.
func (sc *aggScratch) field(entries []*relay.Descriptor, get func(*relay.Descriptor) string) []string {
	vals := sc.vals[:0]
	for _, e := range entries {
		vals = append(vals, get(e))
	}
	sc.vals = vals
	return vals
}

func versionOf(e *relay.Descriptor) string    { return e.Version }
func protocolsOf(e *relay.Descriptor) string  { return e.Protocols }
func exitPolicyOf(e *relay.Descriptor) string { return e.ExitPolicy }
func newerVersion(a, b string) bool           { return relay.CompareVersions(a, b) > 0 }
func greater(a, b string) bool                { return a > b }

// popular returns the most frequent value; among equally frequent values the
// one for which better(a, b) holds over all others wins. Each value is
// counted at its first occurrence; a later occurrence counts fewer matches
// than that first one and so never displaces it.
//
//detlint:hotpath
func popular(vals []string, better func(a, b string) bool) string {
	best, bestCount := "", -1
	for i, v := range vals {
		if len(vals)-i < bestCount {
			break // no value from here on can reach the leader's count
		}
		c := 1
		for _, later := range vals[i+1:] {
			if later == v {
				c++
			}
		}
		switch {
		case c > bestCount:
			best, bestCount = v, c
		case c == bestCount && better(v, best):
			best = v
		}
	}
	return best
}

// Encode renders the consensus document. The result and its digest are
// cached.
func (c *Consensus) Encode() []byte {
	if c.encoded != nil {
		return c.encoded
	}
	b := make([]byte, 0, 256+8*len(c.Voters)+len(c.Relays)*consensusEntrySize)
	b = append(b, "network-status-version 3\nvote-status consensus\nvalid-after "...)
	b = strconv.AppendUint(b, c.ValidAfter, 10)
	b = append(b, "\nnum-votes "...)
	b = strconv.AppendInt(b, int64(c.NumVotes), 10)
	b = append(b, " of "...)
	b = strconv.AppendInt(b, int64(c.TotalAuthorities), 10)
	b = append(b, "\nvoters"...)
	for _, v := range c.Voters {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, '\n')
	for i := range c.Relays {
		b = appendConsensusEntry(b, &c.Relays[i])
	}
	b = append(b, "directory-footer\n"...)
	c.encoded, c.digest = b, sig.Hash(b)
	return c.encoded
}

// appendConsensusEntry appends one consensus relay entry.
//
//detlint:hotpath
func appendConsensusEntry(b []byte, r *ConsensusRelay) []byte {
	b = append(b, "r "...)
	b = append(b, r.Nickname...)
	b = append(b, ' ')
	b = appendHex(b, r.Identity[:])
	b = append(b, ' ')
	b = append(b, r.Address...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(r.ORPort), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(r.DirPort), 10)
	b = append(b, "\ns "...)
	b = r.Flags.Append(b)
	b = append(b, "\nv Tor "...)
	b = append(b, r.Version...)
	b = append(b, "\npr "...)
	b = append(b, r.Protocols...)
	b = append(b, "\nw Bandwidth="...)
	b = strconv.AppendUint(b, r.Bandwidth, 10)
	b = append(b, "\np "...)
	b = append(b, r.ExitPolicy...)
	return append(b, '\n')
}

// EncodedSize returns the consensus wire size in bytes.
func (c *Consensus) EncodedSize() int64 { return int64(len(c.Encode())) }

// Digest returns the SHA-256 digest of the encoded consensus, computed once
// by Encode; this is what authorities sign.
func (c *Consensus) Digest() sig.Digest {
	c.Encode()
	return c.digest
}

// FindRelay returns the consensus entry for an identity, if included.
func (c *Consensus) FindRelay(id relay.Identity) (ConsensusRelay, bool) {
	for _, r := range c.Relays {
		if r.Identity == id {
			return r, true
		}
	}
	return ConsensusRelay{}, false
}
