package core

import (
	"testing"
	"time"

	"partialtor/internal/sig"
)

// TestCorruptedEndorsementRejectedAfterGenuine: all authorities of a run
// verify through one keyring, which by the end of a healthy run remembers
// every genuine signature in the decided value. A copy of that value whose
// signature bytes were corrupted must still be rejected, every time it is
// checked, while the genuine value re-verifies without new Ed25519 work.
func TestCorruptedEndorsementRejectedAfterGenuine(t *testing.T) {
	cfg := baseConfig(t, 9, 50, 0)
	auths, _ := runScenario(t, cfg, 250e6, 2*time.Minute, nil)
	ring := auths[0].ring
	for i, a := range auths {
		if a.ring != ring {
			t.Fatalf("authority %d verifies through its own keyring", i)
		}
	}
	v := auths[0].Decided()
	if v == nil || v.OKCount() != 9 {
		t.Fatalf("healthy run decided %+v", v)
	}
	calls := ring.Ed25519Calls()
	if err := v.Verify(ring, 9, 2); err != nil {
		t.Fatalf("decided value rejected: %v", err)
	}
	if ring.Ed25519Calls() != calls {
		t.Fatalf("re-verifying the decided value ran Ed25519 %d more times", ring.Ed25519Calls()-calls)
	}

	corrupt := func(mutate func(e *ValueEntry)) *AgreementValue {
		c := &AgreementValue{Proposer: v.Proposer, Entries: make([]ValueEntry, len(v.Entries))}
		for j, e := range v.Entries {
			e.Endorsements = append([]sig.Signature(nil), e.Endorsements...)
			c.Entries[j] = e
		}
		mutate(&c.Entries[4])
		return c
	}
	for _, bad := range []struct {
		name  string
		value *AgreementValue
	}{
		{"endorsement", corrupt(func(e *ValueEntry) { e.Endorsements[1].Bytes[9] ^= 0x01 })},
		{"owner signature", corrupt(func(e *ValueEntry) { e.OwnerSig.Bytes[40] ^= 0x20 })},
	} {
		for try := 0; try < 2; try++ {
			if bad.value.Verify(ring, 9, 2) == nil {
				t.Fatalf("try %d: value with a corrupted %s accepted", try, bad.name)
			}
		}
	}
	if err := v.Verify(ring, 9, 2); err != nil {
		t.Fatalf("genuine value rejected after its corruptions: %v", err)
	}
}
