package syncdir

import (
	"testing"
	"time"

	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
)

// codecBouncer round-trips every delivered syncdir message through the wire
// codec (documents, n·d bundles, Dolev-Strong chains, signatures).
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
	cfg := baseConfig(t, 9, 40, 0)
	cfg.Round = 15 * time.Second
	tn := testkit.NewNet(9, 250e6, 1)
	auths := NewAuthorities(cfg)
	hs := make([]simnet.Handler, 9)
	for i, a := range auths {
		hs[i] = &codecBouncer{inner: a, t: t}
	}
	tn.Attach(hs)
	tn.Run(cfg.EndTime() + time.Second)
	res := Collect(auths, cfg)
	if !res.Success || res.SuccessCount != 9 {
		t.Fatalf("codec-bounced run failed: %d of 9 succeeded", res.SuccessCount)
	}
	// Every receiver decoded its own copy of the leader's bundle; the
	// aggregator keys on vote digests, so they still make one vote set.
	assertAggregatedOnce(t, auths)
	st := tn.Network.Stats()
	for _, kind := range []string{"syncdir/doc", "syncdir/bundle", "syncdir/chain", "syncdir/sig"} {
		if st.KindCount[kind] == 0 {
			t.Fatalf("message kind %q never crossed the codec", kind)
		}
	}
}
