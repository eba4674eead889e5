package sig

import (
	"encoding/binary"
	"testing"
)

func BenchmarkSign(b *testing.B) {
	k := NewKeyPair(1, 0)
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Sign("bench", msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	keys := Authorities(1, 9)
	pubs := PublicSet(keys)
	msg := make([]byte, 64)
	s := keys[3].Sign("bench", msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(pubs, "bench", msg, s) {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkKeyringVerifyHit is a replica re-checking a certificate
// signature the instance has already verified.
func BenchmarkKeyringVerifyHit(b *testing.B) {
	keys := Authorities(1, 9)
	ring := NewKeyring(keys)
	msg := make([]byte, 64)
	s := keys[3].Sign("bench", msg)
	ring.Verify("bench", msg, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ring.Verify("bench", msg, s) {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkKeyringVerifyMiss checks a new input every iteration: one Ed25519
// verification plus the memo insert. The message carries the iteration
// number, so the signature no longer matches, which costs Ed25519 the same
// work as a match.
func BenchmarkKeyringVerifyMiss(b *testing.B) {
	keys := Authorities(1, 9)
	ring := NewKeyring(keys)
	msg := make([]byte, 64)
	s := keys[3].Sign("bench", msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(msg, uint64(i)+1)
		if ring.Verify("bench", msg, s) {
			b.Fatal("altered message verified")
		}
	}
	if ring.Ed25519Calls() != b.N {
		b.Fatalf("%d Ed25519 calls for %d distinct inputs", ring.Ed25519Calls(), b.N)
	}
}

func BenchmarkHashVoteSizedDocument(b *testing.B) {
	data := make([]byte, 20_000_000) // a 8000-relay vote
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Hash(data)
	}
}
