package vote

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

// naturalSize is the unpadded size of r's entry per the reference encoder.
func naturalSize(r *relay.Descriptor) int {
	var b bytes.Buffer
	refEncodeEntry(&b, r, 0)
	return b.Len()
}

func TestEncodeMatchesReference(t *testing.T) {
	measured := mkRelay(1, func(d *relay.Descriptor) {
		d.HasMeasured, d.Measured, d.Bandwidth = true, 4321, 5000
	})
	unmeasured := mkRelay(2, func(d *relay.Descriptor) { d.Bandwidth = 0 })
	noFlags := mkRelay(3, func(d *relay.Descriptor) { d.Flags = 0 })
	allSet := mkRelay(4, func(d *relay.Descriptor) { d.Flags = 1<<len(relay.AllFlags()) - 1 })
	relays := []relay.Descriptor{measured, unmeasured, noFlags, allSet}
	relays = append(relays, relay.View(relay.Population(30, 3), 0, 3, relay.DefaultViewConfig())...)

	n := naturalSize(&measured)
	pads := []int{
		0, -1, 1, // unpadded and over budget for every entry
		n + 5, // need = -1: no pad line fits
		n + 6, // need = 0: "pad x\n" exactly
		n + 7,
		DefaultEntryPadding,
	}
	for _, pad := range pads {
		t.Run(fmt.Sprintf("pad=%d", pad), func(t *testing.T) {
			d := NewDocument(7, "gabelmoo", sig.NewKeyPair(3, 7).Fingerprint, 1<<40, relays)
			d.EntryPadding = pad
			if got, want := d.Encode(), refEncodeDocument(d); !bytes.Equal(got, want) {
				t.Fatalf("encoding differs from reference:\n got %q\nwant %q", got, want)
			}
		})
	}
	t.Run("empty", func(t *testing.T) {
		d := NewDocument(0, "moria1", sig.Fingerprint{}, 0, nil)
		if got, want := d.Encode(), refEncodeDocument(d); !bytes.Equal(got, want) {
			t.Fatalf("encoding differs from reference:\n got %q\nwant %q", got, want)
		}
	})

	for _, voters := range [][]int{nil, {4}, {0, 3, 8, 12}} {
		c := &Consensus{ValidAfter: 99, NumVotes: len(voters), TotalAuthorities: 9, Voters: voters}
		for i := range relays {
			r := &relays[i]
			c.Relays = append(c.Relays, ConsensusRelay{
				Nickname: r.Nickname, Identity: r.Identity, Address: r.Address,
				ORPort: r.ORPort, DirPort: r.DirPort, Flags: r.Flags, Version: r.Version,
				Protocols: r.Protocols, ExitPolicy: r.ExitPolicy, Bandwidth: r.Bandwidth,
			})
		}
		if got, want := c.Encode(), refEncodeConsensus(c); !bytes.Equal(got, want) {
			t.Fatalf("voters %v: consensus encoding differs from reference:\n got %q\nwant %q", voters, got, want)
		}
	}
}

// randomVotes builds n votes for one epoch from distinct random authorities
// over a small identity pool. Field values come from small pools so that counts tie, and
// identities are listed by only some votes so that some fall below the
// inclusion threshold. Occasionally a vote lists a relay twice.
func randomVotes(rng *rand.Rand, n int) []*Document {
	versions := []string{"0.4.7.16", "0.4.8.9", "0.4.8.10", "0.4.9.1"}
	protocols := []string{"Cons=1-2 Link=1-5", "Cons=1-2 Link=4-5", "Cons=2"}
	policies := []string{"reject 1-65535", "accept 80,443", "accept 443"}
	nicks := []string{"alpha", "beta", "gamma"}
	authorities := rng.Perm(9)[:n]
	ids := 1 + rng.Intn(12)
	votes := make([]*Document, n)
	for i, a := range authorities {
		var rs []relay.Descriptor
		for id := 0; id < ids; id++ {
			if rng.Float64() < 0.4 {
				continue
			}
			r := mkRelay(byte(id), func(d *relay.Descriptor) {
				d.Nickname = nicks[rng.Intn(len(nicks))]
				d.Address = fmt.Sprintf("10.0.0.%d", a)
				d.ORPort = uint16(9000 + a)
				d.Flags = relay.Flags(rng.Intn(1 << len(relay.AllFlags())))
				d.Version = versions[rng.Intn(len(versions))]
				d.Protocols = protocols[rng.Intn(len(protocols))]
				d.ExitPolicy = policies[rng.Intn(len(policies))]
				d.Bandwidth = uint64(rng.Intn(4))
				d.HasMeasured = rng.Intn(3) == 0
				d.Measured = uint64(rng.Intn(4))
			})
			rs = append(rs, r)
			if rng.Intn(20) == 0 {
				dup := r
				dup.Nickname = "dup"
				rs = append(rs, dup)
			}
		}
		votes[i] = mkVote(a, rs...)
		votes[i].ValidAfter = uint64(10 + n)
	}
	return votes
}

func TestAggregateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 600; trial++ {
		n := []int{1, 2, 9}[trial%3]
		if trial%2 == 1 {
			n = 1 + rng.Intn(9)
		}
		votes := randomVotes(rng, n)
		got, err := Aggregate(votes, 9)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refAggregate(votes, 9)
		if err != nil {
			t.Fatal(err)
		}
		if got.ValidAfter != want.ValidAfter || got.NumVotes != want.NumVotes ||
			got.TotalAuthorities != want.TotalAuthorities || !slices.Equal(got.Voters, want.Voters) {
			t.Fatalf("trial %d: header %+v, want %+v", trial, got, want)
		}
		if !slices.Equal(got.Relays, want.Relays) {
			t.Fatalf("trial %d (%d votes): relays\n got %+v\nwant %+v", trial, n, got.Relays, want.Relays)
		}
		if !bytes.Equal(got.Encode(), refEncodeConsensus(want)) {
			t.Fatalf("trial %d: consensus encoding differs from reference", trial)
		}
	}
}

// TestDigestTracksEncoding pins the digest memo's contract: Digest always
// equals the hash of Encode, and clearing the cached encoding after a change
// to the document yields the new digest.
func TestDigestTracksEncoding(t *testing.T) {
	d := testDoc(t, 1, 10, 0)
	before := d.Digest()
	if before != sig.Hash(d.Encode()) {
		t.Fatal("vote digest is not the hash of its encoding")
	}
	d.Relays[0].Nickname = "renamed"
	if d.Digest() != before {
		t.Fatal("cached vote digest changed without clearing the encoding")
	}
	d.encoded = nil
	if after := d.Digest(); after == before || after != sig.Hash(d.Encode()) || after != sig.Hash(refEncodeDocument(d)) {
		t.Fatal("vote digest did not follow the cleared encoding")
	}

	c := aggregated(t, 20, 3)
	before = c.Digest()
	if before != sig.Hash(c.Encode()) {
		t.Fatal("consensus digest is not the hash of its encoding")
	}
	c.Relays[0].Bandwidth++
	c.encoded = nil
	if after := c.Digest(); after == before || after != sig.Hash(c.Encode()) || after != sig.Hash(refEncodeConsensus(c)) {
		t.Fatal("consensus digest did not follow the cleared encoding")
	}
}
