package hotstuff

import (
	"sort"
	"time"

	"partialtor/internal/obs"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
)

// Replica is one participant of a single-shot agreement instance. It is
// embedded in a parent simnet handler: the parent forwards Start to Start,
// and every message for which IsProtocolMessage holds to Deliver.
type Replica struct {
	cfg   *Config
	index int
	me    *sig.KeyPair
	ring  *sig.Keyring

	view     int
	timerGen int

	lockedQC *QC
	values   map[sig.Digest]Value

	votedPhase map[int]map[int]bool // view -> phase -> voted?

	// Leader-side collection state.
	votes       map[int]map[int]map[sig.Digest][]sig.Signature // view -> phase -> digest -> sigs
	lockSent    map[int]bool
	decideSent  map[int]bool
	proposalOut map[int]bool

	// Pacemaker state.
	timeouts   map[int]map[int]MsgTimeout // view -> signer -> share
	tcFormed   map[int]bool
	sentTimout map[int]bool
	entryTC    *TC

	decided      bool
	decidedValue Value
	decidedView  int
	decidedAt    time.Duration
}

// NewReplica builds the replica with the given index into cfg.Keys.
func NewReplica(cfg *Config, index int) *Replica {
	return &Replica{
		cfg:         cfg,
		index:       index,
		me:          cfg.Keys[index],
		ring:        cfg.Keyring(),
		values:      make(map[sig.Digest]Value),
		votedPhase:  make(map[int]map[int]bool),
		votes:       make(map[int]map[int]map[sig.Digest][]sig.Signature),
		lockSent:    make(map[int]bool),
		decideSent:  make(map[int]bool),
		proposalOut: make(map[int]bool),
		timeouts:    make(map[int]map[int]MsgTimeout),
		tcFormed:    make(map[int]bool),
		sentTimout:  make(map[int]bool),
		decidedAt:   simnet.Never,
	}
}

// Decided reports the outcome, if any.
func (r *Replica) Decided() (Value, bool) { return r.decidedValue, r.decided }

// DecidedView returns the view in which the replica decided (0 if none).
func (r *Replica) DecidedView() int { return r.decidedView }

// DecidedAt returns the decision instant (simnet.Never if undecided).
func (r *Replica) DecidedAt() time.Duration { return r.decidedAt }

// View returns the replica's current view.
func (r *Replica) View() int { return r.view }

// Start enters view 1.
func (r *Replica) Start(ctx *simnet.Context) { r.enterView(ctx, 1) }

// NotifyReady re-runs the leader's proposal attempt; parents call it when
// the input value (Propose) becomes available mid-view.
func (r *Replica) NotifyReady(ctx *simnet.Context) {
	if !r.decided && r.cfg.Leader(r.view) == r.index {
		r.tryPropose(ctx)
	}
}

func (r *Replica) byzSilent() bool { return r.cfg.Silent[r.index] }

func (r *Replica) enterView(ctx *simnet.Context, v int) {
	if v <= r.view || r.decided {
		return
	}
	r.view = v
	r.timerGen++
	gen := r.timerGen
	ctx.After(r.cfg.viewTimeout(v), func() { r.onLocalTimeout(ctx, v, gen) })
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "view", A: int64(v)})
	if r.cfg.OnEnterView != nil {
		r.cfg.OnEnterView(ctx, r.index, v)
	}
	if r.cfg.Leader(v) == r.index {
		r.tryPropose(ctx)
	}
}

// tryPropose broadcasts the leader's proposal once per view. With a lock it
// re-proposes the locked value (when the value is known); otherwise it asks
// the parent for an input and silently waits when none is ready yet.
func (r *Replica) tryPropose(ctx *simnet.Context) {
	v := r.view
	if r.proposalOut[v] || r.decided || r.byzSilent() {
		return
	}
	var value Value
	var justify *QC
	if r.lockedQC != nil {
		if lv, ok := r.values[r.lockedQC.Digest]; ok {
			value, justify = lv, r.lockedQC
		}
	}
	if value == nil {
		value = r.cfg.Propose(r.index, v)
		justify = r.lockedQC
	}
	if value == nil {
		return // input not ready; NotifyReady or the next leader will retry
	}
	r.proposalOut[v] = true
	if r.cfg.Equivocator[r.index] && r.cfg.AltPropose != nil {
		alt := r.cfg.AltPropose(r.index, v)
		for p := 0; p < ctx.N(); p++ {
			if p == r.index {
				continue
			}
			val := value
			if p%2 == 1 {
				val = alt
			}
			ctx.Send(simnet.NodeID(p), &MsgProposal{View: v, Value: val, Justify: justify, EntryTC: r.entryTC})
		}
		r.handleProposal(ctx, &MsgProposal{View: v, Value: value, Justify: justify, EntryTC: r.entryTC})
		return
	}
	m := &MsgProposal{View: v, Value: value, Justify: justify, EntryTC: r.entryTC}
	ctx.Broadcast(m)
	r.handleProposal(ctx, m)
}

// Deliver dispatches a protocol message; parents must pre-filter with
// IsProtocolMessage.
func (r *Replica) Deliver(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if r.byzSilent() {
		return
	}
	switch m := msg.(type) {
	case *MsgProposal:
		r.handleProposal(ctx, m)
	case *MsgVote:
		r.handleVote(ctx, m)
	case *MsgLock:
		r.handleLock(ctx, m)
	case *MsgDecide:
		r.handleDecide(ctx, m)
	case *MsgTimeout:
		r.handleTimeout(ctx, m)
	case *MsgTC:
		r.handleTC(ctx, m.TC)
	}
}

func (r *Replica) handleProposal(ctx *simnet.Context, m *MsgProposal) {
	if r.decided {
		return
	}
	// A proposal for a future view must prove the view change.
	if m.View > r.view {
		if m.EntryTC != nil && m.EntryTC.View == m.View-1 && m.EntryTC.Verify(r.ring, r.cfg.Quorum()) {
			r.enterView(ctx, m.View)
		} else {
			return
		}
	}
	if m.View != r.view || !r.cfg.validate(m.Value) {
		return
	}
	digest := m.Value.Digest()
	r.values[digest] = m.Value
	// Safety rule: vote only if the value matches our lock, or the
	// proposal justifies displacing it with a QC from a view at or above
	// the lock's.
	if r.lockedQC != nil && digest != r.lockedQC.Digest {
		if m.Justify == nil || m.Justify.Phase != 1 || m.Justify.View < r.lockedQC.View ||
			!m.Justify.Verify(r.ring, r.cfg.Quorum()) {
			return
		}
	}
	r.castVote(ctx, m.View, 1, digest)
}

func (r *Replica) castVote(ctx *simnet.Context, view, phase int, digest sig.Digest) {
	if r.votedPhase[view] == nil {
		r.votedPhase[view] = make(map[int]bool)
	}
	if r.votedPhase[view][phase] {
		return
	}
	r.votedPhase[view][phase] = true
	ctx.Trace(obs.Event{Type: obs.EvVote, A: int64(view), B: int64(phase)})
	s := r.me.Sign(voteDomain(phase), qcInput(phase, view, digest))
	v := &MsgVote{View: view, Phase: phase, Digest: digest, Sig: s}
	leader := r.cfg.Leader(view)
	if leader == r.index {
		r.handleVote(ctx, v)
		return
	}
	ctx.Send(simnet.NodeID(leader), v)
}

func (r *Replica) handleVote(ctx *simnet.Context, m *MsgVote) {
	if r.cfg.Leader(m.View) != r.index || r.decided {
		return
	}
	if !r.ring.Verify(voteDomain(m.Phase), qcInput(m.Phase, m.View, m.Digest), m.Sig) {
		return
	}
	if r.votes[m.View] == nil {
		r.votes[m.View] = make(map[int]map[sig.Digest][]sig.Signature)
	}
	if r.votes[m.View][m.Phase] == nil {
		r.votes[m.View][m.Phase] = make(map[sig.Digest][]sig.Signature)
	}
	bucket := r.votes[m.View][m.Phase][m.Digest]
	for _, s := range bucket {
		if s.Signer == m.Sig.Signer {
			return
		}
	}
	bucket = append(bucket, m.Sig)
	r.votes[m.View][m.Phase][m.Digest] = bucket
	if len(bucket) < r.cfg.Quorum() {
		return
	}
	qc := &QC{Phase: m.Phase, View: m.View, Digest: m.Digest, Sigs: bucket}
	switch m.Phase {
	case 1:
		if r.lockSent[m.View] {
			return
		}
		r.lockSent[m.View] = true
		lock := &MsgLock{View: m.View, Digest: m.Digest, QC: qc}
		ctx.Broadcast(lock)
		r.handleLock(ctx, lock)
	case 2:
		if r.decideSent[m.View] {
			return
		}
		r.decideSent[m.View] = true
		value, ok := r.values[m.Digest]
		if !ok {
			return
		}
		dec := &MsgDecide{View: m.View, Value: value, QC: qc}
		ctx.Broadcast(dec)
		r.handleDecide(ctx, dec)
	}
}

func (r *Replica) handleLock(ctx *simnet.Context, m *MsgLock) {
	if r.decided {
		return
	}
	if m.QC == nil || m.QC.Phase != 1 || m.QC.View != m.View || m.QC.Digest != m.Digest ||
		!m.QC.Verify(r.ring, r.cfg.Quorum()) {
		return
	}
	if r.lockedQC == nil || m.QC.View > r.lockedQC.View {
		r.lockedQC = m.QC
	}
	if m.View != r.view {
		return
	}
	r.castVote(ctx, m.View, 2, m.Digest)
}

func (r *Replica) handleDecide(ctx *simnet.Context, m *MsgDecide) {
	if r.decided {
		return
	}
	if m.Value == nil || m.QC == nil || m.QC.Phase != 2 || m.QC.View != m.View ||
		m.QC.Digest != m.Value.Digest() || !m.QC.Verify(r.ring, r.cfg.Quorum()) {
		return
	}
	if !r.cfg.validate(m.Value) {
		return
	}
	r.decided = true
	r.decidedValue = m.Value
	r.decidedView = m.View
	r.decidedAt = ctx.Now()
	r.timerGen++ // cancel pacemaker
	ctx.Logf("info", "hotstuff: decided in view %d on %s", m.View, m.QC.Digest.Short())
	// Relay once so laggards terminate even if the leader's broadcast is
	// still in flight to them.
	ctx.Broadcast(m)
	if r.cfg.OnDecide != nil {
		r.cfg.OnDecide(ctx, r.index, m.Value)
	}
}

func (r *Replica) onLocalTimeout(ctx *simnet.Context, view int, gen int) {
	if gen != r.timerGen || r.decided || view != r.view || r.byzSilent() {
		return
	}
	if r.sentTimout[view] {
		return
	}
	r.sentTimout[view] = true
	ctx.Logf("info", "hotstuff: view %d timed out", view)
	ctx.Trace(obs.Event{Type: obs.EvTimeout, A: int64(view), Label: "pacemaker"})
	m := &MsgTimeout{View: view, HighQC: r.lockedQC, Sig: r.me.Sign(domainTimeout, tcInput(view))}
	ctx.Broadcast(m)
	r.handleTimeout(ctx, m)
}

func (r *Replica) handleTimeout(ctx *simnet.Context, m *MsgTimeout) {
	if r.decided || m.View < r.view {
		return
	}
	if !r.ring.Verify(domainTimeout, tcInput(m.View), m.Sig) {
		return
	}
	if r.timeouts[m.View] == nil {
		r.timeouts[m.View] = make(map[int]MsgTimeout)
	}
	if _, ok := r.timeouts[m.View][m.Sig.Signer]; ok {
		return
	}
	r.timeouts[m.View][m.Sig.Signer] = *m
	if len(r.timeouts[m.View]) < r.cfg.Quorum() || r.tcFormed[m.View] {
		return
	}
	r.tcFormed[m.View] = true
	tc := &TC{View: m.View}
	// Collect shares in signer order: map order would randomize the TC's
	// signature list (and which equal-view HighQC wins), breaking the
	// byte-identical-output contract of the simulation.
	signers := make([]int, 0, len(r.timeouts[m.View]))
	for s := range r.timeouts[m.View] {
		signers = append(signers, s)
	}
	sort.Ints(signers)
	for _, s := range signers {
		share := r.timeouts[m.View][s]
		tc.Sigs = append(tc.Sigs, share.Sig)
		if share.HighQC != nil && (tc.HighQC == nil || share.HighQC.View > tc.HighQC.View) {
			tc.HighQC = share.HighQC
		}
	}
	ctx.Broadcast(&MsgTC{TC: tc})
	r.handleTC(ctx, tc)
}

func (r *Replica) handleTC(ctx *simnet.Context, tc *TC) {
	if r.decided || tc == nil || tc.View < r.view {
		return
	}
	if !tc.Verify(r.ring, r.cfg.Quorum()) {
		return
	}
	// Adopt the certificate's high lock if it beats ours and verifies.
	if tc.HighQC != nil && tc.HighQC.Phase == 1 &&
		(r.lockedQC == nil || tc.HighQC.View > r.lockedQC.View) &&
		tc.HighQC.Verify(r.ring, r.cfg.Quorum()) {
		r.lockedQC = tc.HighQC
	}
	r.entryTC = tc
	r.enterView(ctx, tc.View+1)
}
