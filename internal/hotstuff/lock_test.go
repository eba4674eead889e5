package hotstuff

import (
	"fmt"
	"testing"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
)

// TestLockedValueSurvivesViewChange pins the safety core of the two-chain
// protocol: once a quorum locks on QC₁(v, d), a later view must re-propose
// that value — even though the new leader has its own input.
//
// Construction: view 1 proceeds through PROPOSE/VOTE₁/LOCK normally, but
// every phase-2 vote of view 1 is delayed past the view timeout, so QC₂
// never forms. The timeout certificate carries the lock to view 2, whose
// leader must decide view 1's value, not its own.
func TestLockedValueSurvivesViewChange(t *testing.T) {
	cfg := &Config{
		Keys: testkit.Authorities(9, 3),
		Propose: func(index, view int) Value {
			return testValue{s: fmt.Sprintf("input-%d", index)}
		},
		BaseTimeout: 5 * time.Second,
	}
	reps := make([]*Replica, 9)
	hs := make([]simnet.Handler, 9)
	for i := range reps {
		reps[i] = NewReplica(cfg, i)
		hs[i] = &tnode{r: reps[i]}
	}
	tn := testkit.NewNet(9, 250e6, 3)
	tn.Network.SetDelayFilter(func(from, to simnet.NodeID, m simnet.Message) time.Duration {
		if v, ok := m.(*MsgVote); ok && v.Phase == 2 && v.View == 1 {
			return time.Hour // strand view 1's second phase
		}
		return 0
	})
	tn.Attach(hs)
	tn.Run(30 * time.Minute)

	want := (testValue{s: "input-0"}).Digest()
	for i, r := range reps {
		v, ok := r.Decided()
		if !ok {
			t.Fatalf("replica %d undecided", i)
		}
		if v.Digest() != want {
			t.Fatalf("replica %d decided %s; the view-1 lock on input-0 was abandoned",
				i, v.Digest().Short())
		}
		if r.DecidedView() < 2 {
			t.Fatalf("replica %d decided in view %d; the delay filter failed", i, r.DecidedView())
		}
	}
}

// TestStaleProposalWithoutEntryTCIgnored: a proposal claiming a future view
// must prove the view change with a valid TC.
func TestStaleProposalWithoutEntryTCIgnored(t *testing.T) {
	_, reps := quietReplicas(4, 5)

	// Inject a view-7 proposal with no TC directly: the replica must
	// ignore it before touching any context or voting state.
	reps[1].handleProposal(nil, &MsgProposal{View: 7, Value: testValue{s: "evil"}})
	if reps[1].View() != 1 {
		t.Fatalf("replica jumped to view %d on an unproven proposal", reps[1].View())
	}
	if reps[1].votedPhase[7] != nil {
		t.Fatal("replica voted in an unproven view")
	}
}

// quietReplicas builds n replicas that stay in view 1 with every message
// dropped, so a test can hand one of them crafted messages directly.
func quietReplicas(n int, seed int64) (*Config, []*Replica) {
	cfg := &Config{
		Keys:        testkit.Authorities(n, seed),
		Propose:     func(index, view int) Value { return testValue{s: "x"} },
		BaseTimeout: time.Hour, // no organic view changes
	}
	reps := make([]*Replica, n)
	hs := make([]simnet.Handler, n)
	for i := range reps {
		reps[i] = NewReplica(cfg, i)
		hs[i] = &tnode{r: reps[i]}
	}
	tn := testkit.NewNet(n, 250e6, seed)
	tn.Network.SetDropFilter(func(from, to simnet.NodeID, m simnet.Message) bool { return true })
	tn.Attach(hs)
	tn.Network.Run(time.Second)
	return cfg, reps
}

// TestDecideWithoutValueRejected: a DECIDE carrying no value must be
// dropped before anything touches the value, not crash the replica.
func TestDecideWithoutValueRejected(t *testing.T) {
	_, reps := quietReplicas(4, 5)
	reps[1].Deliver(nil, 0, &MsgDecide{View: 1, QC: &QC{Phase: 2, View: 1}})
	if _, ok := reps[1].Decided(); ok {
		t.Fatal("replica decided on a DECIDE without a value")
	}
}

// TestCorruptedCertificateRejectedAfterGenuine: every replica of an instance
// shares one signature memo. A QC whose signature bytes were altered after
// the genuine QC was verified and remembered must still be rejected, and a
// certificate rejected once must stay rejected.
func TestCorruptedCertificateRejectedAfterGenuine(t *testing.T) {
	cfg, reps := quietReplicas(4, 5)
	for i, r := range reps {
		if r.ring != cfg.Keyring() {
			t.Fatalf("replica %d verifies through its own keyring", i)
		}
	}
	d := (testValue{s: "x"}).Digest()
	genuine := &QC{Phase: 1, View: 2, Digest: d}
	for i := 0; i < cfg.Quorum(); i++ {
		genuine.Sigs = append(genuine.Sigs, cfg.Keys[i].Sign(domainVote1, qcInput(1, 2, d)))
	}
	if !genuine.Verify(cfg.Keyring(), cfg.Quorum()) {
		t.Fatal("genuine QC rejected")
	}
	corrupted := &QC{Phase: 1, View: 2, Digest: d, Sigs: append([]sig.Signature(nil), genuine.Sigs...)}
	corrupted.Sigs[1].Bytes[5] ^= 0x01
	for try := 0; try < 2; try++ {
		// A view-2 lock reaching a view-1 replica is adopted without a vote,
		// so only the certificate check stands between it and the lock.
		reps[2].handleLock(nil, &MsgLock{View: 2, Digest: d, QC: corrupted})
		if reps[2].lockedQC != nil {
			t.Fatalf("try %d: replica locked on a corrupted QC", try)
		}
		if corrupted.Verify(cfg.Keyring(), cfg.Quorum()) {
			t.Fatalf("try %d: corrupted QC verified", try)
		}
	}
	reps[2].handleLock(nil, &MsgLock{View: 2, Digest: d, QC: genuine})
	if reps[2].lockedQC != genuine {
		t.Fatal("replica refused the genuine QC after rejecting its corruption")
	}

	tc := &TC{View: 3}
	for i := 0; i < cfg.Quorum(); i++ {
		tc.Sigs = append(tc.Sigs, cfg.Keys[i].Sign(domainTimeout, tcInput(3)))
	}
	if !tc.Verify(cfg.Keyring(), cfg.Quorum()) {
		t.Fatal("genuine TC rejected")
	}
	badTC := &TC{View: 3, Sigs: append([]sig.Signature(nil), tc.Sigs...)}
	badTC.Sigs[0].Bytes[63] ^= 0x40
	for try := 0; try < 2; try++ {
		if badTC.Verify(cfg.Keyring(), cfg.Quorum()) {
			t.Fatalf("try %d: corrupted TC verified", try)
		}
	}
}
