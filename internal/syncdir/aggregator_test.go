package syncdir

import (
	"testing"
	"time"

	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
)

// assertAggregatedOnce checks that every authority of a run aggregated
// through one shared vote.Aggregator, which computed the consensus once,
// and that all of them hold that one document.
func assertAggregatedOnce(t *testing.T, auths []*Authority) {
	t.Helper()
	agg := auths[0].agg
	for i, a := range auths {
		if a.agg != agg {
			t.Fatalf("authority %d aggregates through its own aggregator", i)
		}
	}
	if n := agg.Aggregations(); n != 1 {
		t.Fatalf("run aggregated %d times, want once", n)
	}
	for i, a := range auths {
		if a.consensus == nil || a.consensus != auths[0].consensus {
			t.Fatalf("authority %d holds consensus %p, authority 0 holds %p", i, a.consensus, auths[0].consensus)
		}
	}
}

// TestHealthyRunAggregatesOnce: all nine authorities of a healthy run agree
// on the leader's bundle of nine documents, so the run aggregates once and
// every authority signs the same *Consensus.
func TestHealthyRunAggregatesOnce(t *testing.T) {
	cfg := baseConfig(t, 9, 80, 0)
	cfg.Round = 20 * time.Second
	tn := testkit.NewNet(9, 250e6, 1)
	auths := NewAuthorities(cfg)
	hs := make([]simnet.Handler, len(auths))
	for i, a := range auths {
		hs[i] = a
	}
	tn.Attach(hs)
	tn.Run(cfg.EndTime() + time.Second)
	if res := Collect(auths, cfg); !res.Success || res.SuccessCount != 9 {
		t.Fatalf("healthy run: success=%v count=%d", res.Success, res.SuccessCount)
	}
	assertAggregatedOnce(t, auths)
	// The aggregator is not safe for concurrent use: each instance, which
	// a parallel sweep may run beside another, must build its own.
	if NewAuthorities(cfg)[0].agg == auths[0].agg {
		t.Fatal("two protocol instances share one aggregator")
	}
}
