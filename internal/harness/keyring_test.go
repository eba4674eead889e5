package harness

import (
	"context"
	"sync"
	"testing"

	"partialtor/internal/core"
)

// TestICPSVerifiesEachSignatureOnce pins the shared keyring: a healthy
// 9-authority ICPS run calls Ed25519 exactly once per distinct signature it
// checks. Those are each authority's document signature (n), every
// proposer's endorsement of every entry (n²), the phase-1 votes (n), the
// phase-2 votes up to the quorum that decides (the leader ignores later
// ones), and the consensus signatures (n).
func TestICPSVerifiesEachSignatureOnce(t *testing.T) {
	res, err := RunE(context.Background(), Scenario{Protocol: ICPS, Relays: 60, EntryPadding: 0})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Detail.(*core.Result)
	if !res.Success {
		t.Fatal("healthy ICPS run failed")
	}
	for i, v := range r.Views {
		if v != 1 {
			t.Fatalf("authority %d decided in view %d; the count below assumes view 1", i, v)
		}
	}
	n := r.N
	want := n + n*n + n + r.Quorum + n
	if r.Ed25519Calls != want {
		t.Fatalf("%d Ed25519 calls, want %d: one per distinct signature", r.Ed25519Calls, want)
	}
}

// TestConcurrentICPSRunsShareInputs runs two cells of each protocol (the
// current protocol, the synchronous protocol and ICPS) all at once from the
// same cached harness.Inputs, as parallel sweeps do. Each run builds its own
// keyring and its own vote aggregator, so under -race nothing the runs share
// is written.
func TestConcurrentICPSRunsShareInputs(t *testing.T) {
	protocols := []Protocol{Current, Synchronous, ICPS}
	results := make([]*RunResult, 2*len(protocols))
	var wg sync.WaitGroup
	for g := range results {
		s := Scenario{Protocol: protocols[g/2], Relays: 60, EntryPadding: 0, Seed: 5}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunE(context.Background(), s)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, p := range protocols {
		a, b := results[2*i], results[2*i+1]
		if !a.Success || a.Latency != b.Latency || a.Consensus().Digest() != b.Consensus().Digest() {
			t.Fatalf("%v: concurrent runs differ: success %v/%v, latency %v/%v", p, a.Success, b.Success, a.Latency, b.Latency)
		}
	}
	a, b := results[4], results[5]
	if ca, cb := a.Detail.(*core.Result).Ed25519Calls, b.Detail.(*core.Result).Ed25519Calls; ca != cb {
		t.Fatalf("concurrent runs verified %d and %d signatures", ca, cb)
	}
}
