package core

import (
	"context"
	"sync"
	"time"
)

// AckResult is the typed resolution of one rule modification: what a
// RUM-aware caller gets instead of hand-parsing ErrTypeRUMAck errors.
type AckResult struct {
	// Switch and XID identify the modification.
	Switch string
	XID    uint32
	// Outcome is the typed result (installed / removed / fallback /
	// failed).
	Outcome Outcome
	// Code is the wire-level ack code (zero for OutcomeFailed).
	Code uint16
	// IssuedAt and ConfirmedAt bracket the update on the RUM clock.
	IssuedAt    time.Duration
	ConfirmedAt time.Duration
	// Latency is the activation latency RUM observed for the rule.
	Latency time.Duration
	// Err carries the typed failure cause when Outcome is OutcomeFailed:
	// ErrChannelLost, ErrSwitchRestarted, or ErrSwitchRejected (nil for
	// positive outcomes). Match with errors.Is.
	Err error
}

// UpdateHandle is an awaitable future for one FlowMod's acknowledgment.
// Obtain it from RUM.Watch before sending the FlowMod.
type UpdateHandle struct {
	r    *RUM
	sw   string
	xid  uint32
	done chan struct{}

	// nextWatch chains handles watching the same xid on one shard
	// (guarded by the shard lock; see shard.watch).
	nextWatch *UpdateHandle

	// cancelFn, when set on a handle with no shard registration (r ==
	// nil), lets the owning routing front release its own bookkeeping on
	// Cancel (e.g. a cluster's handoff-grace parking slot).
	cancelFn func(*UpdateHandle)

	mu        sync.Mutex
	res       AckResult
	resolved  bool
	cancelled bool
}

// Switch returns the watched switch name.
func (h *UpdateHandle) Switch() string { return h.sw }

// XID returns the watched transaction id.
func (h *UpdateHandle) XID() uint32 { return h.xid }

// Done returns a channel closed when the acknowledgment arrives. Use it
// in select loops or with simulated clocks, where blocking in AwaitAck
// would stall the goroutine that must drive the simulation.
func (h *UpdateHandle) Done() <-chan struct{} { return h.done }

// Result returns the acknowledgment if it has arrived.
func (h *UpdateHandle) Result() (AckResult, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res, h.resolved
}

// AwaitAck blocks until the acknowledgment arrives or ctx is done. Under
// a wall clock (TCP deployments) it is safe to block any goroutine; under
// a simulated clock, drive the simulation first and AwaitAck returns the
// already-resolved result immediately.
func (h *UpdateHandle) AwaitAck(ctx context.Context) (AckResult, error) {
	select {
	case <-h.done:
		res, _ := h.Result()
		return res, nil
	default:
	}
	select {
	case <-h.done:
		res, _ := h.Result()
		return res, nil
	case <-ctx.Done():
		return AckResult{}, ctx.Err()
	}
}

// Cancel abandons the watch, releasing the registration for a
// modification that will never be sent (or whose result no longer
// matters). An unresolved handle never resolves after Cancel returns — a
// confirmation racing the cancellation is discarded; a handle that had
// already resolved stays resolved.
func (h *UpdateHandle) Cancel() {
	if h.r != nil {
		h.r.unwatch(h)
	} else if h.cancelFn != nil {
		h.cancelFn(h)
	}
	h.mu.Lock()
	if !h.resolved {
		h.cancelled = true
	}
	h.mu.Unlock()
}

func (h *UpdateHandle) resolve(res AckResult) {
	h.mu.Lock()
	if h.resolved || h.cancelled {
		h.mu.Unlock()
		return
	}
	h.res = res
	h.resolved = true
	h.mu.Unlock()
	close(h.done)
}

// FailedHandle returns an already-resolved handle carrying a failed
// AckResult with the given cause, stamped at now on the caller's clock.
// Routing fronts (e.g. a cluster of RUM instances) use it to answer a
// Watch for a switch no live proxy currently serves: registering a real
// watcher there could only wedge, while an immediate typed failure tells
// the caller to repair and re-issue — the same contract
// DetachSwitchCause applies to watchers it fails.
func FailedHandle(now time.Duration, sw string, xid uint32, cause error) *UpdateHandle {
	h := &UpdateHandle{sw: sw, xid: xid, done: make(chan struct{})}
	h.res = AckResult{Switch: sw, XID: xid, Outcome: OutcomeFailed,
		IssuedAt: now, ConfirmedAt: now, Err: cause}
	h.resolved = true
	close(h.done)
	return h
}

// NextTaken pops the next handle of an intrusive chain returned by
// RUM.TakeWatchers, severing the link. Only the owner of a taken chain
// may call it: handles still registered on a shard chain belong to the
// shard lock.
func (h *UpdateHandle) NextTaken() *UpdateHandle {
	next := h.nextWatch
	h.nextWatch = nil
	return next
}

// Deliver resolves a handle from outside the ack layer. Routing fronts
// that own handles directly — a cluster rescuing a dead member's
// futures against replicated intents — use it to settle the future with
// a truthful result; like any resolution, the first one wins and a
// cancelled handle stays unresolved.
func (h *UpdateHandle) Deliver(res AckResult) { h.resolve(res) }

// NewRemoteHandle creates an unresolved handle owned by a routing front
// rather than registered on a shard: the front resolves it with Deliver
// (or re-homes it with RUM.Rebind once a member serves the switch).
// onCancel, when non-nil, is invoked if the caller Cancels the handle
// while it is still front-owned, so parking-slot bookkeeping can be
// released.
func NewRemoteHandle(sw string, xid uint32, onCancel func(*UpdateHandle)) *UpdateHandle {
	return &UpdateHandle{sw: sw, xid: xid, done: make(chan struct{}), cancelFn: onCancel}
}

// Watch returns an ack future for the FlowMod with the given transaction
// id on the named switch. Call it before sending the FlowMod: an update
// that resolved before Watch was registered is not replayed. Multiple
// handles may watch the same modification. Registrations live on the
// switch's shard, so watch traffic on one switch never contends with
// another's; watching a switch that is not attached yet is allowed (the
// shard outlives attach/detach cycles).
func (r *RUM) Watch(sw string, xid uint32) *UpdateHandle {
	h := &UpdateHandle{r: r, sw: sw, xid: xid, done: make(chan struct{})}
	r.shardFor(sw).watch(h)
	return h
}

// unwatch removes one handle's registration.
func (r *RUM) unwatch(h *UpdateHandle) {
	r.shardFor(h.sw).unwatch(h)
}
