package syncdir

import (
	"testing"
	"time"

	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
)

func BenchmarkSyncdirFullRun(b *testing.B) {
	// One complete healthy 9-authority synchronous-protocol run (document
	// exchange, Dolev-Strong agreement, aggregation, signature collection)
	// with 200-relay documents.
	keys := testkit.Authorities(9, 1)
	docs := testkit.Docs(keys, 200, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{Keys: keys, Docs: docs, Round: 20 * time.Second}
		auths := NewAuthorities(cfg)
		tn := testkit.NewNet(9, 250e6, int64(i))
		hs := make([]simnet.Handler, 9)
		for j, a := range auths {
			hs[j] = a
		}
		tn.Attach(hs)
		tn.Run(cfg.EndTime() + time.Second)
		if !Collect(auths, cfg).Success {
			b.Fatal("run failed")
		}
	}
}
