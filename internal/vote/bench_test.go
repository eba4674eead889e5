package vote

import (
	"testing"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

func benchDocs(b *testing.B, n, relays int) []*Document {
	b.Helper()
	pop := relay.Population(relays, 1)
	docs := make([]*Document, n)
	for a := range docs {
		view := relay.View(pop, a, 1, relay.DefaultViewConfig())
		keys := sig.NewKeyPair(1, a)
		docs[a] = NewDocument(a, relay.AuthorityNames[a], keys.Fingerprint, 1, view)
	}
	return docs
}

// BenchmarkEncode8000Relays renders a padded paper-scale vote from scratch
// each iteration, including the digest Encode computes with it.
func BenchmarkEncode8000Relays(b *testing.B) {
	d := benchDocs(b, 1, 8000)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.encoded = nil
		b.SetBytes(int64(len(d.Encode())))
	}
}

func BenchmarkParse8000Relays(b *testing.B) {
	docs := benchDocs(b, 1, 8000)
	enc := docs[0].Encode()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregate9x8000(b *testing.B) {
	docs := benchDocs(b, 9, 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Aggregate(docs, 9)
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Relays) == 0 {
			b.Fatal("empty consensus")
		}
	}
}

func benchConsensus(b *testing.B) *Consensus {
	b.Helper()
	c, err := Aggregate(benchDocs(b, 9, 2000), 9)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkConsensusEncode renders a consensus from scratch each iteration;
// like every fresh Encode, that includes hashing it once.
func BenchmarkConsensusEncode(b *testing.B) {
	c := benchConsensus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.encoded = nil
		b.SetBytes(int64(len(c.Encode())))
	}
}

// BenchmarkConsensusHash is the SHA-256 share of BenchmarkConsensusEncode.
func BenchmarkConsensusHash(b *testing.B) {
	enc := benchConsensus(b).Encode()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = sig.Hash(enc)
	}
}

var digestSink sig.Digest
