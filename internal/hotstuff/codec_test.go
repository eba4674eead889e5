package hotstuff

import (
	"bytes"
	"fmt"
	"testing"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
)

// stringCodec serializes testValue payloads.
type stringCodec struct{}

func (stringCodec) EncodeValue(v Value) []byte { return []byte(v.(testValue).s) }
func (stringCodec) DecodeValue(b []byte) (Value, error) {
	return testValue{s: string(b)}, nil
}

func mkQC(keys []*sig.KeyPair, phase, view int, payload string) *QC {
	d := sig.Hash([]byte(payload))
	q := &QC{Phase: phase, View: view, Digest: d}
	for i := 0; i < 3; i++ {
		q.Sigs = append(q.Sigs, keys[i].Sign(voteDomain(phase), qcInput(phase, view, d)))
	}
	return q
}

func mkTC(keys []*sig.KeyPair, view int, high *QC) *TC {
	t := &TC{View: view, HighQC: high}
	for i := 0; i < 3; i++ {
		t.Sigs = append(t.Sigs, keys[i].Sign(domainTimeout, tcInput(view)))
	}
	return t
}

func roundTrip(t *testing.T, m simnet.Message, vc ValueCodec) simnet.Message {
	t.Helper()
	b, err := EncodeMessage(m, vc)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	got, err := DecodeMessage(b, vc)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	if got.Kind() != m.Kind() {
		t.Fatalf("kind %q -> %q", m.Kind(), got.Kind())
	}
	// Re-encoding must be stable.
	b2, err := EncodeMessage(got, vc)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("%T: encoding not stable", m)
	}
	return got
}

func TestCodecRoundTrips(t *testing.T) {
	keys := testkit.Authorities(4, 1)
	vc := stringCodec{}
	qc := mkQC(keys, 1, 3, "block")
	tc := mkTC(keys, 2, qc)

	cases := []simnet.Message{
		&MsgProposal{View: 3, Value: testValue{s: "hello"}, Justify: qc, EntryTC: tc},
		&MsgProposal{View: 1, Value: testValue{s: "x"}},
		&MsgVote{View: 2, Phase: 1, Digest: sig.Hash([]byte("d")), Sig: keys[1].Sign("x", nil)},
		&MsgLock{View: 2, Digest: qc.Digest, QC: qc},
		&MsgDecide{View: 4, Value: testValue{s: "final"}, QC: mkQC(keys, 2, 4, "final")},
		&MsgTimeout{View: 7, HighQC: qc, Sig: keys[2].Sign("t", nil)},
		&MsgTimeout{View: 7, Sig: keys[2].Sign("t", nil)},
		&MsgTC{TC: tc},
		&MsgTC{TC: mkTC(keys, 9, nil)},
	}
	for _, m := range cases {
		t.Run(fmt.Sprintf("%T", m), func(t *testing.T) {
			got := roundTrip(t, m, vc)
			switch want := m.(type) {
			case *MsgProposal:
				g := got.(*MsgProposal)
				if g.View != want.View || g.Value.Digest() != want.Value.Digest() {
					t.Fatal("proposal fields lost")
				}
				if (g.Justify == nil) != (want.Justify == nil) || (g.EntryTC == nil) != (want.EntryTC == nil) {
					t.Fatal("optional certs lost")
				}
			case *MsgVote:
				g := got.(*MsgVote)
				if *g != *want {
					t.Fatalf("vote mismatch: %+v vs %+v", g, want)
				}
			case *MsgLock:
				g := got.(*MsgLock)
				if g.View != want.View || g.Digest != want.Digest || len(g.QC.Sigs) != len(want.QC.Sigs) {
					t.Fatal("lock fields lost")
				}
			case *MsgTimeout:
				g := got.(*MsgTimeout)
				if g.View != want.View || g.Sig != want.Sig || (g.HighQC == nil) != (want.HighQC == nil) {
					t.Fatal("timeout fields lost")
				}
			case *MsgTC:
				g := got.(*MsgTC)
				if g.TC.View != want.TC.View || len(g.TC.Sigs) != len(want.TC.Sigs) {
					t.Fatal("tc fields lost")
				}
			}
		})
	}
}

func TestCodecQCSurvivesVerification(t *testing.T) {
	keys := testkit.Authorities(4, 1)
	ring := sig.NewKeyring(keys)
	qc := mkQC(keys, 1, 5, "value")
	m := &MsgLock{View: 5, Digest: qc.Digest, QC: qc}
	b, err := EncodeMessage(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.(*MsgLock).QC.Verify(ring, 3) {
		t.Fatal("decoded QC fails verification")
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := DecodeMessage(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := DecodeMessage([]byte{0xFF, 1, 2}, nil); err == nil {
		t.Fatal("unknown tag accepted")
	}
	// Proposals require a value codec.
	if _, err := EncodeMessage(&MsgProposal{View: 1, Value: testValue{s: "x"}}, nil); err == nil {
		t.Fatal("proposal encoded without ValueCodec")
	}
	// Truncation is detected.
	keys := testkit.Authorities(4, 1)
	b, err := EncodeMessage(&MsgTC{TC: mkTC(keys, 2, nil)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(b[:len(b)-10], nil); err == nil {
		t.Fatal("truncated TC accepted")
	}
	// Trailing bytes are rejected.
	if _, err := DecodeMessage(append(b, 0x00), nil); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
