package core

import (
	"testing"
	"time"
)

// assertAggregatedOnce checks that every authority of a run aggregated
// through one shared vote.Aggregator, which computed the consensus once,
// and that every authority for which holds reports true holds that one
// document.
func assertAggregatedOnce(t *testing.T, auths []*Authority, holds func(i int) bool) {
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
	first := -1
	for i, a := range auths {
		if !holds(i) {
			continue
		}
		if first < 0 {
			first = i
		}
		if a.consensus == nil || a.consensus != auths[first].consensus {
			t.Fatalf("authority %d holds consensus %p, authority %d holds %p", i, a.consensus, first, auths[first].consensus)
		}
	}
}

// TestHealthyRunAggregatesOnce: all nine authorities of a healthy run
// decide the same value and fetch the same documents, so the run
// aggregates once and every authority signs the same *Consensus.
func TestHealthyRunAggregatesOnce(t *testing.T) {
	cfg := baseConfig(t, 9, 50, 0)
	auths, _ := runScenario(t, cfg, 250e6, 2*time.Minute, nil)
	for i, a := range auths {
		if !a.Done() {
			t.Fatalf("authority %d did not finish", i)
		}
	}
	assertAggregatedOnce(t, auths, func(int) bool { return true })
	// The aggregator is not safe for concurrent use: each instance, which
	// a parallel sweep may run beside another, must build its own.
	if NewAuthorities(cfg)[0].agg == auths[0].agg {
		t.Fatal("two protocol instances share one aggregator")
	}
}
