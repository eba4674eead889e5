// Package vote implements Tor status vote documents and the consensus
// aggregation algorithm of the directory protocol (paper Figure 2).
//
// A vote is an authority's signed list of the relays it knows, rendered in
// a dir-spec-like text format so that document size grows linearly with the
// number of relays — the property every experiment in the paper depends on.
// Aggregate combines votes into a consensus document: a relay is included
// when it appears in at least ⌊n/2⌋ votes; its name comes from the vote with
// the largest authority ID; flags follow the popular vote with ties unset;
// the largest version/protocol and the lexicographically larger exit policy
// win ties; and bandwidth is the median of the measuring votes. Every vote
// in a set must be for the same epoch.
//
// The authority protocols aggregate through an Aggregator, one per protocol
// instance and shared by all of its authorities, which computes each
// distinct vote set once and hands every authority holding that set the same
// document: honest authorities that agree on their votes compute the same
// consensus, and aggregation is a pure function of the votes, so the
// simulation's outputs cannot tell the difference. Aggregate is the uncached
// primitive.
package vote

import (
	"fmt"
	"strconv"
	"strings"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

// DefaultEntryPadding is the calibrated per-relay entry size in bytes.
//
// Live vote entries are a few hundred bytes, but the paper's measured
// thresholds (≈10 Mbit/s needed at 8000 relays, Figure 7; current-protocol
// failure between 9000 and 10000 relays at 10 Mbit/s, Figure 10) imply an
// effective transport cost of ≈2.5 kB per relay once HTTP/TLS framing,
// compression inefficiency and retransmission under load are folded in.
// We calibrate the document format to that effective size instead of
// simulating TCP; see DESIGN.md §2 and §6.
const DefaultEntryPadding = 2500

// Document is one authority's status vote.
type Document struct {
	AuthorityIndex int
	AuthorityName  string
	Fingerprint    sig.Fingerprint
	ValidAfter     uint64 // vote epoch (hours)
	EntryPadding   int    // pad each relay entry to this many bytes; 0 = natural size
	Relays         []relay.Descriptor

	// encoded caches the rendered vote and digest its SHA-256; Encode sets
	// both together, so clearing encoded also invalidates digest.
	encoded []byte
	digest  sig.Digest
}

// NewDocument builds a vote for an authority over its relay view.
func NewDocument(authorityIndex int, name string, fp sig.Fingerprint, epoch uint64, relays []relay.Descriptor) *Document {
	return &Document{
		AuthorityIndex: authorityIndex,
		AuthorityName:  name,
		Fingerprint:    fp,
		ValidAfter:     epoch,
		EntryPadding:   DefaultEntryPadding,
		Relays:         relays,
	}
}

// Unpadded entries of the synthetic population average 261 bytes in a vote
// and 208 in a consensus; buffers are pre-sized a little above that, so
// they rarely grow and carry little slack.
const (
	voteEntrySize      = 280
	consensusEntrySize = 224
)

// Encode renders the vote in its text format. The result and its digest
// are cached: votes are immutable once built.
func (d *Document) Encode() []byte {
	if d.encoded != nil {
		return d.encoded
	}
	b := make([]byte, 0, 256+len(d.Relays)*max(d.EntryPadding, voteEntrySize))
	b = append(b, "network-status-version 3\nvote-status vote\nvalid-after "...)
	b = strconv.AppendUint(b, d.ValidAfter, 10)
	b = append(b, "\nentry-padding "...)
	b = strconv.AppendInt(b, int64(d.EntryPadding), 10)
	b = append(b, "\ndir-source "...)
	b = append(b, d.AuthorityName...)
	b = append(b, ' ')
	b = appendHex(b, d.Fingerprint[:])
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(d.AuthorityIndex), 10)
	b = append(b, '\n')
	for i := range d.Relays {
		b = appendEntry(b, &d.Relays[i], d.EntryPadding)
	}
	b = append(b, "directory-footer\n"...)
	d.encoded, d.digest = b, sig.Hash(b)
	return d.encoded
}

// appendEntry appends one relay entry, padded to pad bytes when pad > 0.
//
//detlint:hotpath
func appendEntry(b []byte, r *relay.Descriptor, pad int) []byte {
	start := len(b)
	b = append(b, "r "...)
	b = append(b, r.Nickname...)
	b = append(b, ' ')
	b = appendHex(b, r.Identity[:])
	b = append(b, ' ')
	b = appendHex(b, r.Digest[:])
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
	if r.HasMeasured {
		b = append(b, " Measured="...)
		b = strconv.AppendUint(b, r.Measured, 10)
	}
	b = append(b, "\np "...)
	b = append(b, r.ExitPolicy...)
	b = append(b, '\n')
	if pad > 0 {
		used := len(b) - start
		// "pad <filler>\n" consumes the remaining budget exactly when
		// possible (needs at least len("pad x\n") spare bytes).
		if need := pad - used - 6; need >= 0 {
			b = append(b, "pad "...)
			b = appendFill(b, 'x', need+1)
			b = append(b, '\n')
		}
	}
	return b
}

// appendHex appends src as upper-case hex, the form relay identities and
// authority fingerprints take in documents.
//
//detlint:hotpath
func appendHex(b, src []byte) []byte {
	const hexUpper = "0123456789ABCDEF"
	for _, c := range src {
		b = append(b, hexUpper[c>>4], hexUpper[c&0xf])
	}
	return b
}

// appendFill appends n copies of c, doubling the filled run each step.
//
//detlint:hotpath
func appendFill(b []byte, c byte, n int) []byte {
	if n <= 0 {
		return b
	}
	start := len(b)
	b = append(b, c)
	for done := 1; done < n; done = len(b) - start {
		b = append(b, b[start:start+min(done, n-done)]...)
	}
	return b
}

// EncodedSize returns the vote's wire size in bytes.
func (d *Document) EncodedSize() int64 { return int64(len(d.Encode())) }

// Digest returns the SHA-256 digest of the encoded vote, computed once by
// Encode.
func (d *Document) Digest() sig.Digest {
	d.Encode()
	return d.digest
}

// Parse inverts Encode.
func Parse(data []byte) (*Document, error) {
	d := &Document{}
	var cur *relay.Descriptor
	flush := func() {
		if cur != nil {
			d.Relays = append(d.Relays, *cur)
			cur = nil
		}
	}
	sawFooter := false
	sawSource := false
	for lineNo, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		fail := func(why string) error {
			return fmt.Errorf("vote: line %d (%q): %s", lineNo+1, key, why)
		}
		switch key {
		case "network-status-version":
			if rest != "3" {
				return nil, fail("unsupported version")
			}
		case "vote-status":
			if rest != "vote" {
				return nil, fail("not a vote")
			}
		case "valid-after":
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return nil, fail(err.Error())
			}
			d.ValidAfter = v
		case "entry-padding":
			v, err := strconv.Atoi(rest)
			if err != nil {
				return nil, fail(err.Error())
			}
			d.EntryPadding = v
		case "dir-source":
			f := strings.Fields(rest)
			if len(f) != 3 {
				return nil, fail("want 3 fields")
			}
			d.AuthorityName = f[0]
			if err := parseHex20(f[1], d.Fingerprint[:]); err != nil {
				return nil, fail(err.Error())
			}
			idx, err := strconv.Atoi(f[2])
			if err != nil {
				return nil, fail(err.Error())
			}
			d.AuthorityIndex = idx
			sawSource = true
		case "r":
			flush()
			f := strings.Fields(rest)
			if len(f) != 6 {
				return nil, fail("want 6 fields")
			}
			cur = &relay.Descriptor{Nickname: f[0], Address: f[3]}
			if err := parseHex20(f[1], cur.Identity[:]); err != nil {
				return nil, fail(err.Error())
			}
			if err := parseHex20(f[2], cur.Digest[:]); err != nil {
				return nil, fail(err.Error())
			}
			or, err := strconv.ParseUint(f[4], 10, 16)
			if err != nil {
				return nil, fail(err.Error())
			}
			dir, err := strconv.ParseUint(f[5], 10, 16)
			if err != nil {
				return nil, fail(err.Error())
			}
			cur.ORPort, cur.DirPort = uint16(or), uint16(dir)
		case "s":
			if cur == nil {
				return nil, fail("flags before relay")
			}
			fl, err := relay.ParseFlags(rest)
			if err != nil {
				return nil, fail(err.Error())
			}
			cur.Flags = fl
		case "v":
			if cur == nil {
				return nil, fail("version before relay")
			}
			cur.Version = strings.TrimPrefix(rest, "Tor ")
		case "pr":
			if cur == nil {
				return nil, fail("protocols before relay")
			}
			cur.Protocols = rest
		case "w":
			if cur == nil {
				return nil, fail("bandwidth before relay")
			}
			for _, kv := range strings.Fields(rest) {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fail("malformed w item")
				}
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fail(err.Error())
				}
				switch k {
				case "Bandwidth":
					cur.Bandwidth = n
				case "Measured":
					cur.HasMeasured = true
					cur.Measured = n
				}
			}
		case "p":
			if cur == nil {
				return nil, fail("policy before relay")
			}
			cur.ExitPolicy = rest
		case "pad":
			// filler; ignored
		case "directory-footer":
			flush()
			sawFooter = true
		default:
			return nil, fail("unknown keyword")
		}
	}
	if !sawFooter {
		return nil, fmt.Errorf("vote: missing directory-footer")
	}
	if !sawSource {
		return nil, fmt.Errorf("vote: missing dir-source")
	}
	return d, nil
}

func parseHex20(s string, dst []byte) error {
	if len(s) != 40 {
		return fmt.Errorf("want 40 hex chars, got %d", len(s))
	}
	for i := 0; i < 20; i++ {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return fmt.Errorf("bad hex at %d", 2*i)
		}
		dst[i] = hi<<4 | lo
	}
	return nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
