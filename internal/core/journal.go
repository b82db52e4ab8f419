package core

import (
	"errors"

	"rum/internal/journal"
	"rum/internal/of"
)

// JournalSink receives sealed pending-intent replication frames for one
// switch (see internal/journal). A cluster front installs one to stream
// each member's pending updates to a successor member's replica; the
// frame's backing is reused after the call returns, so sinks must copy
// what they keep (journal.Replica.ApplyFrame does).
type JournalSink interface {
	JournalFrame(sw string, frame []byte)
}

// SetJournalSink installs the intent-replication sink. It must be set
// before switches attach: sessions latch the sink's presence once, so
// the per-update hot path pays a single bool test when replication is
// off (the AckPath 0-alloc budget assumes exactly that).
func (r *RUM) SetJournalSink(sink JournalSink) { r.journal = sink }

// journalIntent appends u's intent record to the session's frame under
// construction. Called with a.mu held (the same critical section that
// assigns u.seq), so records are appended in seq order and an intent
// always precedes any resolve record for the same update. jmu nests
// inside a.mu and nothing else — a leaf lock.
func (a *ackLayer) journalIntent(u *Update) {
	a.jmu.Lock()
	if a.jbuf == nil {
		a.jbuf = journal.BeginFrame(nil)
	}
	var digest uint64
	digest, a.jscratch = journal.DigestRule(a.jscratch, u.fm.Priority, u.fm.Match, u.fm.Actions)
	var err error
	a.jbody, err = of.MarshalAppend(a.jbody[:0], u.fm)
	if err != nil {
		// Without wire bytes the successor cannot re-issue, but it can
		// still confirm or fail truthfully: journal the intent body-less.
		a.jbody = a.jbody[:0]
	}
	rec := journal.Record{
		Op:       journal.OpIntent,
		Switch:   u.sw,
		XID:      u.xid,
		Seq:      u.seq,
		Digest:   digest,
		Strategy: a.sess.techName,
		IssuedAt: u.issuedAt,
		Deadline: u.issuedAt + a.sess.rum.cfg.Timeout,
		Body:     a.jbody,
	}
	a.jbuf = journal.AppendIntent(a.jbuf, &rec)
	a.jmu.Unlock()
}

// journalResolve appends u's resolve record, retiring its replicated
// intent. Detach-driven failures are deliberately NOT journaled: a
// member killed mid-flight fails its pending updates with
// ErrChannelLost/ErrSwitchRestarted on the way down, and journaling
// those resolutions would erase exactly the intents the successor needs
// to rescue. Shed updates (ErrOverloaded) never journaled an intent, so
// a resolve would only plant a stray tombstone.
func (a *ackLayer) journalResolve(u *Update) {
	if u.failErr != nil &&
		(errors.Is(u.failErr, ErrChannelLost) ||
			errors.Is(u.failErr, ErrSwitchRestarted) ||
			errors.Is(u.failErr, ErrOverloaded)) {
		return
	}
	a.jmu.Lock()
	if a.jbuf == nil {
		a.jbuf = journal.BeginFrame(nil)
	}
	a.jbuf = journal.AppendResolve(a.jbuf, u.sw, u.xid, u.seq)
	a.jmu.Unlock()
}

// journalDeliver seals the frame under construction and hands it to the
// sink, then resets the buffer for reuse. Delivery happens on the shard
// flush path (write-ahead: the replica learns an intent no later than
// the wire does) and after confirmation batches (so resolves retire
// replicated intents promptly). Holding jmu across the sink call keeps
// frames ordered per session; the sink copies, so the buffer is
// immediately reusable.
func (a *ackLayer) journalDeliver() {
	a.jmu.Lock()
	if journal.Empty(a.jbuf) {
		a.jmu.Unlock()
		return
	}
	frame := journal.SealFrame(a.jbuf)
	a.sess.rum.journal.JournalFrame(a.sess.name, frame)
	a.jbuf = journal.BeginFrame(a.jbuf)
	a.jmu.Unlock()
}

// TakeWatchers removes and returns the named switch's registered
// ack-future chains, keyed by xid; each map value heads an intrusive
// nextWatch chain. A cluster front calls it at the instant a member is
// declared dead, BEFORE the detach: the member's pending updates then
// fail into an empty watcher table — every refcount, strategy, and pool
// obligation still runs — while the futures themselves survive in the
// caller's hands for rescue. Taken handles are unreachable from the
// shard, so a racing Cancel is a safe no-op.
func (r *RUM) TakeWatchers(sw string) map[uint32]*UpdateHandle {
	return r.shardFor(sw).takeWatchers()
}

// Rebind registers a handle taken by TakeWatchers on this RUM instance
// (typically a rescued future re-homed onto the switch's adoptive
// member). The chain link is severed first: the caller owns iterating
// the taken chains, and a rebound handle starts a fresh registration.
func (r *RUM) Rebind(h *UpdateHandle) {
	h.nextWatch = nil
	h.r = r
	r.shardFor(h.sw).watch(h)
}

// InjectFlowMod feeds fm into the named switch's session at the top of
// its layer chain, exactly as if the controller had sent it — tracked,
// admitted, journaled, and confirmed by the switch's strategy. The
// rescue path uses it to re-issue a journaled update (same xid) on the
// adoptive member, so the rescued future resolves through the real
// acknowledgment machinery rather than an optimistic guess.
func (r *RUM) InjectFlowMod(sw string, fm *of.FlowMod) error {
	s, ok := r.sessionByName(sw)
	if !ok {
		return errors.New("core: inject " + sw + ": not attached")
	}
	s.proxy.InjectFromController(fm)
	return nil
}
