package dirv3

import (
	"testing"
	"time"

	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
)

// codecBouncer round-trips every delivered dirv3 message through the wire
// codec (see the equivalent ICPS test for rationale).
type codecBouncer struct {
	inner *Authority
	t     *testing.T
}

func (b *codecBouncer) Start(ctx *simnet.Context) { b.inner.Start(ctx) }

func (b *codecBouncer) Deliver(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	enc, err := EncodeMessage(msg)
	if err != nil {
		b.t.Fatalf("EncodeMessage(%T): %v", msg, err)
	}
	dec, err := DecodeMessage(enc)
	if err != nil {
		b.t.Fatalf("DecodeMessage(%T): %v", msg, err)
	}
	b.inner.Deliver(ctx, from, dec)
}

func TestFullRunThroughWireCodec(t *testing.T) {
	// A full current-protocol period with every message serialized. Node
	// 0's initial vote broadcast reaches only node 1 (the rest is dropped),
	// so everyone else exercises the fetch path — requests answered by
	// node 1 with a full vote response — through the codec too.
	cfg := baseConfig(t, 9, 60, 0)
	cfg.Round = 20 * time.Second
	cfg.FetchTimeout = 5 * time.Second
	tn := testkit.NewNet(9, 250e6, 1)
	tn.Network.SetDropFilter(func(from, to simnet.NodeID, m simnet.Message) bool {
		return from == 0 && to != 1 && m.Kind() == "dirv3/vote"
	})
	auths := NewAuthorities(cfg)
	hs := make([]simnet.Handler, 9)
	for i, a := range auths {
		hs[i] = &codecBouncer{inner: a, t: t}
	}
	tn.Attach(hs)
	tn.Run(cfg.EndTime() + time.Second)
	res := Collect(auths, cfg)
	if !res.Success {
		t.Fatalf("codec-bounced run failed: votes=%v sigs=%v", res.VoteCounts, res.SigCounts)
	}
	// Every receiver decoded its own copies of the votes; the aggregator
	// keys on vote digests, so they still make one vote set.
	assertAggregatedOnce(t, auths)
	st := tn.Network.Stats()
	if st.KindCount["dirv3/vote-req"] == 0 || st.KindCount["dirv3/vote-resp"] == 0 {
		t.Fatal("fetch path not exercised; weaken the throttle")
	}
}
