// Package sig provides the authority identity and signature substrate for
// the directory protocols: deterministic Ed25519 authority keys, SHA-256
// digests, Tor-style fingerprints, and domain-separated signing.
//
// All protocols in this repository (the current Tor directory protocol v3,
// Luo et al.'s synchronous protocol, and the paper's partially synchronous
// protocol) authenticate votes, proposals and consensus signatures with this
// package. Keys are derived deterministically from (seed, authority index)
// so simulations are reproducible.
//
// The authority protocols verify through a Keyring, one per protocol
// instance and shared by all of its authorities, which checks each distinct
// signature once and remembers the result: every replica re-checks the same
// certificates, but Ed25519 verification is a pure function, so the
// simulation's outputs cannot tell the difference. Verify is the uncached
// primitive, for the chain and client code that checks a signature set once.
package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// DigestSize is the size of a document digest in bytes.
const DigestSize = sha256.Size

// SignatureSize is the wire size of a signature in bytes.
const SignatureSize = ed25519.SignatureSize

// FingerprintSize is the size of an authority/relay fingerprint in bytes.
const FingerprintSize = 20

// Digest is a SHA-256 hash of a document or message.
type Digest [DigestSize]byte

// Hash returns the SHA-256 digest of data.
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// HashParts digests the concatenation of several byte slices, each
// length-prefixed to prevent ambiguity.
func HashParts(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// Hex returns the digest as lowercase hex.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// Short returns the first 8 hex characters, for logs.
func (d Digest) Short() string { return d.Hex()[:8] }

// IsZero reports whether the digest is all zeroes (used as "no digest").
func (d Digest) IsZero() bool { return d == Digest{} }

// Fingerprint identifies an authority, Tor-style (20 bytes, upper hex).
type Fingerprint [FingerprintSize]byte

// String renders the fingerprint as Tor does in logs: 40 upper-case hex
// characters.
func (f Fingerprint) String() string {
	dst := make([]byte, hex.EncodedLen(len(f)))
	hex.Encode(dst, f[:])
	for i, c := range dst {
		if c >= 'a' && c <= 'f' {
			dst[i] = c - 'a' + 'A'
		}
	}
	return string(dst)
}

// KeyPair is an authority's long-term signing identity.
type KeyPair struct {
	Index       int // authority index (0-based)
	Public      ed25519.PublicKey
	private     ed25519.PrivateKey
	Fingerprint Fingerprint
}

// NewKeyPair derives the authority key for index deterministically from the
// seed.
func NewKeyPair(seed int64, index int) *KeyPair {
	material := sha256.Sum256([]byte(fmt.Sprintf("partialtor-authority-%d-%d", seed, index)))
	priv := ed25519.NewKeyFromSeed(material[:])
	pub := priv.Public().(ed25519.PublicKey)
	var fp Fingerprint
	full := sha256.Sum256(pub)
	copy(fp[:], full[:FingerprintSize])
	return &KeyPair{Index: index, Public: pub, private: priv, Fingerprint: fp}
}

// Authorities derives n authority key pairs.
func Authorities(seed int64, n int) []*KeyPair {
	keys := make([]*KeyPair, n)
	for i := range keys {
		keys[i] = NewKeyPair(seed, i)
	}
	return keys
}

// Signature is a domain-separated Ed25519 signature tagged with its signer.
type Signature struct {
	Signer int // authority index
	Bytes  [SignatureSize]byte
}

// WireSize is the accounting size of one Signature on the wire.
const WireSize = SignatureSize + 4

// signingInput binds the domain label to the message.
func signingInput(domain string, msg []byte) []byte {
	return appendSigningInput(make([]byte, 0, len(domain)+1+len(msg)), domain, msg)
}

func appendSigningInput(dst []byte, domain string, msg []byte) []byte {
	dst = append(dst, domain...)
	dst = append(dst, 0)
	return append(dst, msg...)
}

// Sign produces a signature over msg under the given domain label.
func (k *KeyPair) Sign(domain string, msg []byte) Signature {
	var s Signature
	s.Signer = k.Index
	copy(s.Bytes[:], ed25519.Sign(k.private, signingInput(domain, msg)))
	return s
}

// Verify checks a signature against a public key registry (indexed by
// authority). It returns false for out-of-range signers.
func Verify(publics []ed25519.PublicKey, domain string, msg []byte, s Signature) bool {
	if s.Signer < 0 || s.Signer >= len(publics) {
		return false
	}
	return ed25519.Verify(publics[s.Signer], signingInput(domain, msg), s.Bytes[:])
}

// PublicSet extracts the verification registry from key pairs.
func PublicSet(keys []*KeyPair) []ed25519.PublicKey {
	pubs := make([]ed25519.PublicKey, len(keys))
	for i, k := range keys {
		pubs[i] = k.Public
	}
	return pubs
}

// Keyring verifies signatures against one authority set and memoizes every
// result, valid or not. ed25519.Verify is a pure function of the public key,
// the signed input and the signature, so a remembered result is the one a
// fresh check would return; the memo only saves repeated work.
//
// A Keyring is not safe for concurrent use. Build one per protocol instance
// and share it among that instance's authorities, which a simulation runs on
// one goroutine; never share one between concurrently running instances.
type Keyring struct {
	pubs  []ed25519.PublicKey
	memo  map[string]bool
	key   []byte // reused buffer for the memo key
	calls int
}

// NewKeyring builds the verification memo for the given authority keys.
func NewKeyring(keys []*KeyPair) *Keyring {
	return &Keyring{pubs: PublicSet(keys), memo: make(map[string]bool)}
}

// Verify reports what Verify(publics, domain, msg, s) would for the
// keyring's authority set, checking each distinct (signer, signature,
// domain, message) once.
func (k *Keyring) Verify(domain string, msg []byte, s Signature) bool {
	if s.Signer < 0 || s.Signer >= len(k.pubs) {
		return false
	}
	// The memo key holds the verification's whole input: the signer (which
	// selects the public key), the signature, then the exact bytes Ed25519
	// checks. Signer and signature have fixed widths, so two queries share a
	// key only when Ed25519 would see identical inputs.
	key := binary.BigEndian.AppendUint32(k.key[:0], uint32(s.Signer))
	key = append(key, s.Bytes[:]...)
	key = appendSigningInput(key, domain, msg)
	k.key = key
	if ok, seen := k.memo[string(key)]; seen {
		return ok
	}
	k.calls++
	ok := ed25519.Verify(k.pubs[s.Signer], key[4+SignatureSize:], s.Bytes[:])
	k.memo[string(key)] = ok
	return ok
}

// Ed25519Calls returns how many signatures the keyring actually verified:
// one per distinct input with an in-range signer.
func (k *Keyring) Ed25519Calls() int { return k.calls }
