package sig

import (
	"math/rand"
	"testing"
)

// keyringCase is one verification query: the oracle answer is what the
// uncached Verify says about it.
type keyringCase struct {
	name   string
	domain string
	msg    []byte
	s      Signature
}

func flipped(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i%len(out)] ^= 0x01
	return out
}

func flippedSig(s Signature, i int) Signature {
	s.Bytes[i%SignatureSize] ^= 0x80
	return s
}

// keyringTable covers each way a query can differ from a valid one.
func keyringTable(keys []*KeyPair) []keyringCase {
	msg := []byte("consensus digest")
	good := keys[2].Sign("vote", msg)
	otherSigner := good
	otherSigner.Signer = 3
	outOfRange := good
	outOfRange.Signer = len(keys)
	negative := good
	negative.Signer = -1
	return []keyringCase{
		{"valid", "vote", msg, good},
		{"flipped message", "vote", flipped(msg, 0), good},
		{"flipped last message byte", "vote", flipped(msg, len(msg)-1), good},
		{"flipped signature", "vote", msg, flippedSig(good, 0)},
		{"flipped last signature byte", "vote", msg, flippedSig(good, SignatureSize-1)},
		{"flipped domain", string(flipped([]byte("vote"), 1)), msg, good},
		{"other domain", "Vote", msg, good},
		{"domain/message boundary", "vot", append([]byte("e\x00"), msg...), good},
		{"empty domain", "", msg, good},
		{"other signer", "vote", msg, otherSigner},
		{"out-of-range signer", "vote", msg, outOfRange},
		{"negative signer", "vote", msg, negative},
		{"valid again", "vote", msg, good},
	}
}

func TestKeyringMatchesVerify(t *testing.T) {
	keys := Authorities(1, 9)
	pubs := PublicSet(keys)
	ring := NewKeyring(keys)
	cases := keyringTable(keys)
	// Every case twice, in both orders, against one shared keyring: a
	// memoized answer must equal a fresh one whatever was asked before.
	for pass := 0; pass < 2; pass++ {
		for i := range cases {
			c := cases[i]
			if pass == 1 {
				c = cases[len(cases)-1-i]
			}
			want := Verify(pubs, c.domain, c.msg, c.s)
			if got := ring.Verify(c.domain, c.msg, c.s); got != want {
				t.Errorf("pass %d, %s: keyring says %v, Verify says %v", pass, c.name, got, want)
			}
		}
	}
	if !Verify(pubs, cases[0].domain, cases[0].msg, cases[0].s) {
		t.Fatal("table's valid case does not verify")
	}
}

// TestKeyringRepeatOrders asks about one (signer, domain, message) with a bad
// and a good signature, in both orders, on fresh keyrings: a remembered
// rejection must not shadow the valid signature, nor the reverse.
func TestKeyringRepeatOrders(t *testing.T) {
	keys := Authorities(1, 4)
	msg := []byte("qc|1|2")
	good := keys[1].Sign("hotstuff/vote1", msg)
	bad := flippedSig(good, 7)
	for _, order := range [][]Signature{{bad, good, bad, good}, {good, bad, good, bad}} {
		ring := NewKeyring(keys)
		for i, s := range order {
			want := s == good
			if got := ring.Verify("hotstuff/vote1", msg, s); got != want {
				t.Fatalf("order starting valid=%v, query %d: got %v, want %v", order[0] == good, i, got, want)
			}
		}
		if ring.Ed25519Calls() != 2 {
			t.Fatalf("%d Ed25519 calls for 2 distinct signatures", ring.Ed25519Calls())
		}
	}
}

// TestKeyringRandomized compares the keyring with Verify on random queries,
// each a valid signature or one with a single part changed, and then asks
// every query again in a shuffled order.
func TestKeyringRandomized(t *testing.T) {
	keys := Authorities(3, 7)
	pubs := PublicSet(keys)
	ring := NewKeyring(keys)
	rng := rand.New(rand.NewSource(11))
	domains := []string{"vote", "vote1", "consensus", "ics/endorse", ""}
	var cases []keyringCase
	for i := 0; i < 400; i++ {
		msg := make([]byte, 1+rng.Intn(48))
		rng.Read(msg)
		domain := domains[rng.Intn(len(domains))]
		s := keys[rng.Intn(len(keys))].Sign(domain, msg)
		c := keyringCase{name: "valid", domain: domain, msg: msg, s: s}
		switch rng.Intn(7) {
		case 1:
			c.name, c.msg = "flipped message", flipped(msg, rng.Intn(len(msg)))
		case 2:
			c.name, c.s = "flipped signature", flippedSig(s, rng.Intn(SignatureSize))
		case 3:
			c.name, c.domain = "other domain", domains[rng.Intn(len(domains))]
		case 4:
			c.name = "other signer"
			c.s.Signer = rng.Intn(len(keys))
		case 5:
			c.name = "out-of-range signer"
			c.s.Signer = len(keys) + rng.Intn(3) - 2*len(keys)*rng.Intn(2)
		}
		cases = append(cases, c)
	}
	for pass := 0; pass < 2; pass++ {
		for _, c := range cases {
			want := Verify(pubs, c.domain, c.msg, c.s)
			if got := ring.Verify(c.domain, c.msg, c.s); got != want {
				t.Fatalf("pass %d, %s (signer %d, domain %q): keyring says %v, Verify says %v",
					pass, c.name, c.s.Signer, c.domain, got, want)
			}
		}
		rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	}
}

// TestKeyringCallsCountDistinctInputs pins the memo's purpose: Ed25519 runs
// once per distinct input, never for an out-of-range signer.
func TestKeyringCallsCountDistinctInputs(t *testing.T) {
	keys := Authorities(1, 4)
	ring := NewKeyring(keys)
	msg := []byte("m")
	s := keys[0].Sign("d", msg)
	for i := 0; i < 5; i++ {
		ring.Verify("d", msg, s)
	}
	if ring.Ed25519Calls() != 1 {
		t.Fatalf("%d Ed25519 calls for one repeated input", ring.Ed25519Calls())
	}
	ring.Verify("d", []byte("n"), s)
	ring.Verify("e", msg, s)
	out := s
	out.Signer = 4
	ring.Verify("d", msg, out)
	if ring.Ed25519Calls() != 3 {
		t.Fatalf("%d Ed25519 calls, want 3 (out-of-range signers are not checked)", ring.Ed25519Calls())
	}
}
