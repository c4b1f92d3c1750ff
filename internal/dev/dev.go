// Package dev implements the instrumented device driver and disk scheduler
// from the paper's experimental apparatus (section 2) and the
// scheduler-enforced ordering machinery of section 3.
//
// The driver accepts asynchronous requests, keeps them in a queue, and
// dispatches them to the disk with C-LOOK scheduling, concatenating
// sequential requests the way the paper's SVR4 MP driver did. Ordering is
// expressed as a per-request *barrier set* computed at submission time:
//
//   - ModeIgnore: no ordering beyond conflicts (overlapping ranges never
//     reorder). Used by Conventional, Soft Updates and No Order, which
//     enforce ordering above the driver (or not at all).
//   - ModeFlag: the one-bit ordering flag of section 3.1 with the Full,
//     Back and Part semantics, optionally letting non-conflicting reads
//     bypass ordering (the -NR option).
//   - ModeChains: the explicit dependency lists of section 3.2 — each
//     request names previously issued request IDs that must complete first.
//
// Every request is traced with its queue and service delays, reproducing
// the paper's driver instrumentation ("per-request queue and service
// delays").
package dev

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"metaupdate/internal/disk"
	"metaupdate/internal/fault"
	"metaupdate/internal/sim"
)

// Errors a request can complete with (Request.Err). They surface only on a
// faulted disk: with no fault plan installed every request still succeeds.
var (
	// ErrIO: the command kept failing transiently (or tearing) until the
	// driver's retry budget ran out.
	ErrIO = errors.New("dev: unrecoverable i/o error")
	// ErrBadSector: the range covers a permanently bad sector that could
	// not be remapped — unreadable data (reads) or an exhausted spare pool
	// (writes).
	ErrBadSector = errors.New("dev: permanent bad sector")
)

// OrderMode selects how the scheduler interprets ordering information.
type OrderMode int

// Ordering modes.
const (
	ModeIgnore OrderMode = iota
	ModeFlag
	ModeChains
)

// FlagSemantics is the contract between file system and scheduler for
// ModeFlag (section 3.1).
type FlagSemantics int

// Flag semantics, from most to least restrictive.
const (
	// SemFull: a flagged request is a full barrier — it waits for all
	// previous requests, and nothing submitted later passes it.
	SemFull FlagSemantics = iota
	// SemBack: requests submitted after a flagged request cannot be
	// scheduled before it or anything submitted before it; the flagged
	// request itself reorders freely with previous non-flagged requests.
	SemBack
	// SemPart: requests submitted after a flagged request cannot be
	// scheduled before it; everything else reorders freely.
	SemPart
)

func (s FlagSemantics) String() string {
	switch s {
	case SemFull:
		return "Full"
	case SemBack:
		return "Back"
	case SemPart:
		return "Part"
	}
	return fmt.Sprintf("FlagSemantics(%d)", int(s))
}

// Config parameterizes the driver.
type Config struct {
	Mode OrderMode
	Sem  FlagSemantics // for ModeFlag
	// NR lets non-conflicting reads bypass writes that are waiting on
	// ordering restrictions (the -NR option; meaningless for ModeChains,
	// where reads simply carry no dependencies).
	NR bool
	// MaxConcat bounds the sectors dispatched as one concatenated disk
	// command. 0 means DefaultMaxConcat.
	MaxConcat int

	// MaxRetries bounds the redispatch attempts after a recoverable fault
	// (transient error, torn write). 0 means DefaultMaxRetries; negative
	// disables retries. Remap retries (a write healed a bad sector) do not
	// count: they always make progress.
	MaxRetries int
	// RetryBackoff is the virtual-time delay before the first redispatch,
	// doubling per attempt. 0 means DefaultRetryBackoff.
	RetryBackoff sim.Duration
	// SpareSectors sizes the disk's bad-sector remap pool when the driver
	// installs faults; 0 takes disk.DefaultSpareSectors.
	SpareSectors int
}

// DefaultMaxConcat is 128 KB of sectors, a typical mid-90s transfer cap.
const DefaultMaxConcat = 256

// DefaultMaxRetries is the default per-batch retry budget.
const DefaultMaxRetries = 4

// DefaultRetryBackoff is the default base delay before a redispatch.
const DefaultRetryBackoff = 2 * sim.Millisecond

// Request is one disk request. Submit assigns ID and Done. The Data slice of
// a write must not be modified until Done fires (the buffer cache enforces
// this with write locks or by snapshotting — the -CB scheme).
type Request struct {
	ID    uint64
	Op    disk.Op
	LBN   int64  // first sector
	Count int    // sectors
	Data  []byte // write source; nil for reads
	Buf   []byte // read destination; nil for writes

	Flag      bool     // ModeFlag: ordering flag
	DependsOn []uint64 // ModeChains: request IDs that must complete first

	Done *sim.Completion

	// Err is the request's final outcome, set before Done fires: nil on
	// success, ErrIO/ErrBadSector when the driver exhausted its recovery
	// options. A failed write left nothing (new) on the media; a failed
	// read filled nothing into Buf.
	Err error

	// Barrier bookkeeping. A request counts the wait units it still holds
	// in nwait and is dispatchable at zero. A sector-conflict or chains
	// dependency predecessor is an edge: it lists the successor in blocks
	// and releases one unit when it leaves the pending set. A flag relation
	// (and chains' flagged barrier) is one unit however many predecessors
	// it covers: a drain watermark, released once no pending request — or
	// no pending flagged request — with ID <= a bound remains.
	nwait  int
	blocks []*Request // edge successors to unblock when this request leaves

	qseq     uint64 // queue position; equal LBNs dispatch in qseq order
	idLink   link   // thread in the driver's ID-ordered pending list
	flagLink link   // thread in the ID-ordered pending flagged list

	enqueueAt  sim.Time
	dispatchAt sim.Time
	// readyAt is when the last barrier predecessor completed (== enqueueAt
	// for requests submitted with no predecessors). With dispatchAt it
	// splits a waiter's blocked interval into barrier / queue / media
	// portions for the operation-span recorder.
	readyAt sim.Time
}

func (r *Request) end() int64 { return r.LBN + int64(r.Count) }

func (r *Request) overlaps(q *Request) bool {
	return r.LBN < q.end() && q.LBN < r.end()
}

// conflicts reports the mode-independent ordering constraint: overlapping
// sector ranges where at least one side writes never reorder.
func conflicts(r, q *Request) bool {
	return r.overlaps(q) && (r.Op == disk.Write || q.Op == disk.Write)
}

// SubmitTime returns when the request entered the driver queue. A write's
// Data carries at least the source buffer's state as of this instant (a
// later modification either waits for completion or diverts into a -CB
// snapshot), which is what lets durability-notification schemes credit
// waiters registered at or before it.
func (r *Request) SubmitTime() sim.Time { return r.enqueueAt }

// ReadyTime returns when the request became dispatchable (its last
// ordering predecessor completed); before that instant the request was
// barrier-blocked. Valid once the request has been submitted and its
// barrier cleared; zero until then.
func (r *Request) ReadyTime() sim.Time { return r.readyAt }

// DispatchTime returns when the driver most recently handed the request
// to the media (re-set on retry dispatches, matching the trace's Queue
// accounting).
func (r *Request) DispatchTime() sim.Time { return r.dispatchAt }

// Stat is one traced request, in completion order.
type Stat struct {
	// ID is the request ID — the same identifier the crashmc model checker
	// uses to name offending writes, so violations can be correlated with
	// this trace's queue/service delays.
	ID       uint64
	Op       disk.Op
	Sectors  int
	Queue    sim.Duration // submission -> dispatch
	Service  sim.Duration // dispatch -> completion ("disk access time")
	Response sim.Duration // submission -> completion ("driver response time")
	CacheHit bool
	Failed   bool // request completed with an error
}

// Trace accumulates per-request statistics.
type Trace struct {
	Stats       []Stat
	MaxQueueLen int
}

// Reset clears the trace (used to scope measurement to a benchmark window).
func (t *Trace) Reset() { t.Stats = nil; t.MaxQueueLen = 0 }

// Requests returns the number of traced requests.
func (t *Trace) Requests() int { return len(t.Stats) }

// AvgServiceMS returns the mean disk access time in milliseconds.
func (t *Trace) AvgServiceMS() float64 { return t.avg(func(s Stat) sim.Duration { return s.Service }) }

// AvgResponseMS returns the mean driver response time in milliseconds.
func (t *Trace) AvgResponseMS() float64 {
	return t.avg(func(s Stat) sim.Duration { return s.Response })
}

// AvgQueueMS returns the mean queueing delay in milliseconds.
func (t *Trace) AvgQueueMS() float64 { return t.avg(func(s Stat) sim.Duration { return s.Queue }) }

func (t *Trace) avg(f func(Stat) sim.Duration) float64 {
	if len(t.Stats) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, s := range t.Stats {
		sum += f(s)
	}
	return (sum / sim.Duration(len(t.Stats))).Milliseconds()
}

// Driver is the device driver plus disk scheduler.
type Driver struct {
	eng *sim.Engine
	dsk *disk.Disk
	cfg Config

	nextID   uint64
	queued   int        // submitted, not dispatched (barrier-blocked or eligible)
	inflight []*Request // dispatched batch, in LBN order
	pending  map[uint64]*Request

	// Indexes over the pending set (queued + inflight), so a submission
	// touches only the requests it is ordered behind.
	byLBN     lbnIndex   // every pending request by (LBN, ID): conflicts
	byID      idList     // every pending request in ID order
	flagged   idList     // pending flagged requests in ID order
	drainAll  drainQueue // watermark waiters on byID
	drainFlag drainQueue // watermark waiters on flagged
	maxCount  int        // largest Count submitted: bounds the conflict search

	// elig holds the queued requests with no outstanding wait unit, by
	// (LBN, qseq) — C-LOOK order with queue order breaking ties.
	elig     lbnIndex
	nextQseq uint64

	free []*Request // LIFO request pool (see AllocRequest/Release)
	// batchBufs are the in-flight batch's storage, used alternately: a
	// completion callback may submit and dispatch the next batch while
	// complete is still firing the previous one.
	batchBufs   [2][]*Request
	batchFlip   int
	predScratch []uint64 // reusable observer pred-ID buffer
	completeFn  func()   // d.complete, bound once so dispatch allocates no closure

	lastFlagID uint64 // most recent flagged request ever submitted (ModeFlag)
	headLBN    int64  // C-LOOK position: sector after the last dispatch

	batchAccess   disk.Access
	batchDispatch sim.Time
	batchLBN      int64
	// batchState distinguishes an in-flight batch transferring on the media
	// from one parked in a retry backoff — Crash must know which: a batch in
	// backoff has already failed and commits nothing further, whereas a
	// transferring batch commits the elapsed-time sector prefix.
	batchState   int
	batchRetries int

	idleC   *sim.Completion
	crashed bool
	obs     Observer

	// Faults counts the driver's fault handling (all zero on a clean disk).
	Faults FaultStats

	// OrderingStalls counts requests submitted with at least one
	// mode-specific ordering predecessor (flag or chain sequencing) —
	// pure sector-conflict edges, which arise in every mode, are excluded.
	// ModeIgnore drivers (No Order, Conventional, Soft Updates) therefore
	// always report zero: the paper-shaped "requests blocked on ordering"
	// counter. Always on.
	OrderingStalls int64

	Trace Trace
}

// FaultStats counts the driver's recovery activity.
type FaultStats struct {
	Transient  int64 `json:"transient"`   // transient command failures seen
	Torn       int64 `json:"torn"`        // torn writes seen (prefix committed)
	BadSectors int64 `json:"bad_sectors"` // permanent bad-sector hits
	Remaps     int64 `json:"remaps"`      // bad sectors healed by remapping
	Retries    int64 `json:"retries"`     // batch redispatches
	Errors     int64 `json:"errors"`      // requests failed to their issuers
}

// batchState values.
const (
	batchIdle = iota
	batchTransferring
	batchBackoff
)

// New returns a driver for dsk driven by eng.
func New(eng *sim.Engine, dsk *disk.Disk, cfg Config) *Driver {
	if cfg.MaxConcat <= 0 {
		cfg.MaxConcat = DefaultMaxConcat
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	d := &Driver{
		eng:     eng,
		dsk:     dsk,
		cfg:     cfg,
		pending: make(map[uint64]*Request),
		byLBN:   newLBNIndex(dsk.Sectors()),
		flagged: idList{flagged: true},
		elig:    newLBNIndex(dsk.Sectors()),
	}
	d.completeFn = d.complete
	return d
}

// AllocRequest returns a blank Request, reusing one from the driver's pool
// when available. The pool is per-driver (so per-System) and LIFO, which
// keeps reuse deterministic. Callers fill in the request and Submit it as
// usual; pooling is optional — a plain &Request{} behaves identically.
func (d *Driver) AllocRequest() *Request {
	if n := len(d.free); n > 0 {
		r := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		return r
	}
	return &Request{}
}

// Release returns a completed request to the pool for a later AllocRequest.
// The caller must be the request's sole owner: Done must have fired and
// nothing else may retain the pointer (the buffer cache uses this for read
// requests, which it owns from Submit through completion). The request's
// Done completion and successor list keep their storage across reuse.
func (d *Driver) Release(r *Request) {
	if r.Done == nil || !r.Done.Fired() {
		panic("dev: Release of incomplete request")
	}
	done := r.Done
	done.Reset()
	*r = Request{Done: done, blocks: r.blocks[:0]}
	d.free = append(d.free, r)
}

// Config returns the driver configuration.
func (d *Driver) Config() Config { return d.cfg }

// Observer receives the driver's request timeline: a submission event for
// every request (with the barrier set the driver will enforce) and a
// completion event for every serviced batch, in virtual-time order. The
// crash-state model checker records this timeline to enumerate the crash
// images a workload could leave behind. Callbacks run synchronously in
// engine context and must not block or re-enter the driver.
type Observer interface {
	// RequestSubmitted fires after r's barrier is computed. preds is the
	// sorted set of pending request IDs that must complete before r; the
	// slice is a scratch buffer valid only during the callback. For
	// writes, r.Data is the exact write source (stable until completion).
	RequestSubmitted(r *Request, preds []uint64)
	// RequestsCompleted fires when a batch's data has been moved — writes
	// are on the media — and before any completion callbacks run.
	RequestsCompleted(ids []uint64, at sim.Time)
}

// FaultObserver is the optional extension an Observer may implement to see
// fault events. The crash-state model checker needs both: a torn write
// changes the media without completing anything (a new kind of crash atom),
// and a failed request must leave the pending set without ever being a
// completion candidate.
type FaultObserver interface {
	// BatchTorn fires when a faulted write batch committed a sector prefix:
	// `sectors` sectors, spread across the batch's requests in LBN order
	// (ids are the write requests in that order). The requests remain
	// pending — the driver will retry or fail them.
	BatchTorn(ids []uint64, sectors int, at sim.Time)
	// RequestsFailed fires when requests complete with an error: nothing
	// (further) reached the media and they are no longer pending.
	RequestsFailed(ids []uint64, at sim.Time)
}

// SetObserver installs (or, with nil, removes) the timeline observer.
func (d *Driver) SetObserver(o Observer) { d.obs = o }

// QueueLen reports queued (not yet dispatched) requests.
func (d *Driver) QueueLen() int { return d.queued }

// Busy reports whether any request is queued or in flight.
func (d *Driver) Busy() bool { return d.queued > 0 || len(d.inflight) > 0 }

// Submit enqueues r, computes its ordering barrier, and starts the disk if
// idle. It returns r for convenience; r.Done fires at completion.
func (d *Driver) Submit(r *Request) *Request {
	if r.Count <= 0 {
		panic("dev: request with no sectors")
	}
	if r.Op == disk.Write && len(r.Data) != r.Count*disk.SectorSize {
		panic("dev: write data size mismatch")
	}
	if r.Op == disk.Read && len(r.Buf) != r.Count*disk.SectorSize {
		panic("dev: read buffer size mismatch")
	}
	d.nextID++
	r.ID = d.nextID
	r.Err = nil
	if r.Done == nil {
		r.Done = sim.NewCompletion()
	} else if r.Done.Fired() {
		r.Done.Reset()
	}
	r.enqueueAt = d.eng.Now()

	d.wire(r)
	if r.nwait == 0 {
		r.readyAt = r.enqueueAt
	}
	if d.obs != nil {
		d.obs.RequestSubmitted(r, d.predScratch)
	}

	d.pending[r.ID] = r
	d.byID.push(r)
	if r.Flag {
		d.flagged.push(r)
	}
	d.byLBN.insert(r, r.ID)
	d.maxCount = max(d.maxCount, r.Count)
	if r.Flag && d.cfg.Mode == ModeFlag {
		d.lastFlagID = r.ID
	}
	d.enqueue(r)
	if d.queued > d.Trace.MaxQueueLen {
		d.Trace.MaxQueueLen = d.queued
	}
	d.kick()
	return r
}

// wire computes r's barrier against the pending set — exactly the requests
// submitted before r that have not completed — without scanning it:
//
//   - sector conflicts come from the LBN index, one edge each, except to
//     a request covered by the next entry at its LBN (see lbnEntry.covers);
//   - Back and Full wait on the byID watermark ("every pending ID <= X"),
//     Part and chains' flagged barrier on the flagged one ("every pending
//     flagged ID < r.ID"), one unit each;
//   - chains' DependsOn IDs are looked up in pending, one edge each.
//
// The predecessor set is the one Predecessors computes. OrderingStalls
// needs only whether one member does not conflict with r; conflicting
// members are few, so await stops at the first non-conflicting one unless
// an observer wants the whole set, which predScratch then holds sorted.
func (d *Driver) wire(r *Request) {
	collect := d.obs != nil
	d.predScratch = d.predScratch[:0]

	// A pending request starting maxCount or more sectors before r ends
	// before r begins. Entries at one LBN share a bucket, so the entry a
	// covered one is covered by is the next in its bucket.
	lo, end := r.LBN-int64(d.maxCount)+1, r.end()
	for b := d.byLBN.bucket(lo); b <= d.byLBN.bucket(end-1); b++ {
		s := d.byLBN.buckets[b]
		for i := searchEntries(s, lo, 0); i < len(s) && s[i].lbn < end; i++ {
			if e := &s[i]; !e.conflicts(r) {
				continue
			} else if i+1 < len(s) && s[i+1].covers(e) {
				if collect {
					d.predScratch = append(d.predScratch, e.r.ID)
				}
			} else {
				d.edge(e.r, r, collect)
			}
		}
	}

	stall := false
	switch d.cfg.Mode {
	case ModeFlag:
		if d.cfg.NR && r.Op == disk.Read {
			break // reads bypass ordering, conflicts already handled
		}
		switch d.cfg.Sem {
		case SemPart:
			stall = d.await(r, &d.flagged, &d.drainFlag, r.ID-1, collect)
		case SemBack:
			stall = d.await(r, &d.byID, &d.drainAll, d.lastFlagID, collect)
		case SemFull:
			upto := d.lastFlagID
			if r.Flag {
				upto = r.ID - 1 // a flagged request waits for everything before it
			}
			stall = d.await(r, &d.byID, &d.drainAll, upto, collect)
		}
	case ModeChains:
		if r.Op == disk.Write {
			stall = d.await(r, &d.flagged, &d.drainFlag, r.ID-1, collect)
		}
		for i, id := range r.DependsOn {
			q := d.pending[id]
			if q == nil || conflicts(r, q) || slices.Contains(r.DependsOn[:i], id) {
				continue // completed, already an edge, or listed twice
			}
			d.edge(q, r, collect)
			stall = true
		}
	}
	if stall {
		d.OrderingStalls++
	}
	if collect {
		slices.Sort(d.predScratch)
		d.predScratch = slices.Compact(d.predScratch)
	}
}

// edge makes r wait for pending request q to leave the pending set.
func (d *Driver) edge(q, r *Request, collect bool) {
	q.blocks = append(q.blocks, r)
	r.nwait++
	if collect {
		d.predScratch = append(d.predScratch, q.ID)
	}
}

// await makes r wait until no request with ID <= upto remains on l, if any
// does now, and reports whether one of them does not conflict with r (an
// ordering stall). Watermark waiters join w in submission order, which is
// also ascending upto order (see drainQueue.push).
func (d *Driver) await(r *Request, l *idList, w *drainQueue, upto uint64, collect bool) (stall bool) {
	if l.head == nil || l.head.ID > upto {
		return false
	}
	r.nwait++
	w.push(drainWait{r: r, upto: upto})
	for q := l.head; q != nil && q.ID <= upto; q = l.link(q).next {
		if !conflicts(r, q) {
			stall = true
			if !collect {
				break
			}
		}
		if collect {
			d.predScratch = append(d.predScratch, q.ID)
		}
	}
	return stall
}

// Predecessors computes the ordering barrier of r: the IDs among `prior`
// — the pending (submitted, not completed) requests that precede r, in
// any order — that must complete before r may be dispatched under cfg.
// lastFlagID is the ID of the most recently submitted flagged request at
// r's submission time (zero if none; relevant to ModeFlag only).
//
// This is the relation Submit enforces, stated pairwise and evaluated by
// brute force over prior. The driver reaches the same set through its
// indexes and drain watermarks (see wire); the crash-state model checker
// (package crashmc) relies on that set, and the flag-semantics and
// differential tests pin the driver to this definition.
func Predecessors(cfg Config, r *Request, prior []*Request, lastFlagID uint64) map[uint64]struct{} {
	waiting := make(map[uint64]struct{})
	for _, q := range prior {
		if predecessorOf(cfg, r, q, lastFlagID) {
			waiting[q.ID] = struct{}{}
		}
	}
	return waiting
}

// predecessorOf reports whether pending request q must complete before r
// may be dispatched under cfg.
func predecessorOf(cfg Config, r, q *Request, lastFlagID uint64) bool {
	// Conflicts: overlapping ranges where at least one side writes never
	// reorder, in every mode.
	if conflicts(r, q) {
		return true
	}
	switch cfg.Mode {
	case ModeIgnore:
		// Nothing further.
	case ModeFlag:
		if cfg.NR && r.Op == disk.Read {
			return false // reads bypass ordering, conflicts already handled
		}
		switch cfg.Sem {
		case SemPart:
			// Wait for every pending flagged request.
			return q.Flag
		case SemBack:
			// Wait for everything submitted at or before the most
			// recently submitted flagged request (whether or not that
			// flagged request itself is still pending).
			return q.ID <= lastFlagID
		case SemFull:
			// As SemBack, and a flagged request is additionally a full
			// barrier: it waits for all previous requests.
			return q.ID <= lastFlagID || r.Flag
		}
	case ModeChains:
		// Barrier fallback (section 3.2's simpler de-allocation approach):
		// a flagged request under chains acts as a Part-NR-style barrier —
		// later writes wait for it, reads pass.
		if r.Op == disk.Write && q.Flag {
			return true
		}
		// Explicit dependency lists; IDs no longer pending dropped out by
		// construction (q ranges over pending requests only).
		return slices.Contains(r.DependsOn, q.ID)
	}
	return false
}

// enqueue appends r to the queue: it takes the next queue position and, if
// it holds no wait unit, joins the eligible set.
func (d *Driver) enqueue(r *Request) {
	r.qseq = d.nextQseq
	d.nextQseq++
	d.queued++
	if r.nwait == 0 {
		d.elig.insert(r, r.qseq)
	}
}

// unblock releases one of r's wait units at now.
func (d *Driver) unblock(r *Request, now sim.Time) {
	r.nwait--
	if r.nwait == 0 {
		r.readyAt = now
		d.elig.insert(r, r.qseq)
	}
}

// leave removes finished (completed or failed) requests from the pending
// set and releases what waited on them: their edges, then every watermark
// waiter whose bound the low-water marks have passed. A failed request
// leaves exactly as a completed one does — its data never reached the
// media, so it constrains nothing.
func (d *Driver) leave(rs []*Request, now sim.Time) {
	for _, r := range rs {
		delete(d.pending, r.ID)
		d.byID.remove(r)
		if r.Flag {
			d.flagged.remove(r)
		}
		d.byLBN.remove(r, r.ID)
	}
	for _, r := range rs {
		for i, blocked := range r.blocks {
			d.unblock(blocked, now)
			r.blocks[i] = nil
		}
		r.blocks = r.blocks[:0]
	}
	d.drain(&d.drainAll, &d.byID, now)
	d.drain(&d.drainFlag, &d.flagged, now)
}

// drain releases w's waiters whose bound lies below l's low-water mark.
func (d *Driver) drain(w *drainQueue, l *idList, now sim.Time) {
	low := uint64(math.MaxUint64)
	if l.head != nil {
		low = l.head.ID
	}
	for w.head < len(w.w) && w.w[w.head].upto < low {
		r := w.w[w.head].r
		w.w[w.head] = drainWait{}
		w.head++
		d.unblock(r, now)
	}
}

// kick dispatches the next batch if the disk is idle and work is eligible.
// C-LOOK picks the eligible request with the smallest LBN at or after the
// head position, wrapping to the smallest LBN when none is ahead; then the
// batch gathers eligible same-op requests exactly contiguous after it, up
// to the concatenation cap — the paper's "scheduling code in the device
// driver concatenates sequential requests". At equal LBNs the
// earliest-queued request wins, in both steps.
func (d *Driver) kick() {
	if d.crashed || len(d.inflight) > 0 || d.elig.n == 0 {
		return // idle with nothing eligible: a completion will re-kick
	}
	pick := d.elig.ceil(d.headLBN)
	if pick == nil {
		pick = d.elig.ceil(0)
	}
	d.batchFlip ^= 1
	batch := append(d.batchBufs[d.batchFlip][:0], pick)
	total, end := pick.Count, pick.end()
	for total < d.cfg.MaxConcat {
		next := d.elig.first(end, pick.Op)
		if next == nil || total+next.Count > d.cfg.MaxConcat {
			break
		}
		batch = append(batch, next)
		total += next.Count
		end = next.end()
	}
	d.batchBufs[d.batchFlip] = batch
	d.dispatch(batch)
}

func (d *Driver) dispatch(batch []*Request) {
	now := d.eng.Now()
	total := 0
	for _, r := range batch {
		total += r.Count
		r.dispatchAt = now
		d.elig.remove(r, r.qseq)
	}
	d.queued -= len(batch)
	d.inflight = batch
	d.batchRetries = 0
	d.headLBN = batch[0].LBN + int64(total)
	d.startBatch(batch)
}

// startBatch plans the media access for an in-flight batch (first dispatch
// or a retry) and schedules its completion.
func (d *Driver) startBatch(batch []*Request) {
	now := d.eng.Now()
	total := 0
	for _, r := range batch {
		total += r.Count
	}
	acc := d.dsk.Plan(now, batch[0].Op, batch[0].LBN, total)
	d.batchAccess = acc
	d.batchDispatch = now
	d.batchLBN = batch[0].LBN
	d.batchState = batchTransferring
	d.eng.At(now+acc.Service, d.completeFn)
}

func batchIDs(batch []*Request) []uint64 {
	ids := make([]uint64, len(batch))
	for i, r := range batch {
		ids[i] = r.ID
	}
	return ids
}

// complete handles the in-flight batch's media completion.
func (d *Driver) complete() {
	if d.crashed {
		return
	}
	batch, acc := d.inflight, d.batchAccess
	now := d.eng.Now()
	switch f := acc.Fault; f.Kind {
	case fault.Torn:
		// The write stopped after f.TornSectors sectors: commit that prefix
		// (each sector is still atomic), tell the observer the media
		// changed, and recover by rewriting the whole batch.
		d.Faults.Torn++
		d.commitBatchPrefix(batch, f.TornSectors, now)
		d.retryOrFail(batch, ErrIO)
		return
	case fault.Transient:
		// Command aborted before the transfer: nothing reached the media.
		d.Faults.Transient++
		d.retryOrFail(batch, ErrIO)
		return
	case fault.BadSector:
		d.Faults.BadSectors++
		if batch[0].Op == disk.Write {
			// Sectors before the bad one are on the media (a tear at the
			// fault point); then try to heal the sector by remapping it to
			// a spare. A successful remap always earns a retry — it made
			// progress — while an exhausted spare pool is unrecoverable.
			d.commitBatchPrefix(batch, f.TornSectors, now)
			if d.dsk.Remap(f.Sector) {
				d.Faults.Remaps++
				d.scheduleRetry(batch)
				return
			}
			d.failBatch(batch, ErrBadSector, now)
			return
		}
		// A permanently unreadable sector: retrying cannot help. Fail the
		// requests covering it and send the rest of the batch back to the
		// queue for a normal redispatch.
		d.splitReadBatch(batch, f.Sector, now)
		return
	}

	// Success (fault.None, or fault.Latency already folded into Service).
	// Move data first: writes commit to media, reads fill buffers. Only
	// after the media reflects the batch do we fire completions, so that
	// completion callbacks (e.g. soft updates redo) observe committed state.
	for _, r := range batch {
		if r.Op == disk.Write {
			d.dsk.Commit(r.LBN, r.Data)
		} else {
			d.dsk.ReadAt(r.LBN, r.Buf)
		}
	}
	d.leave(batch, now)
	if d.obs != nil {
		d.obs.RequestsCompleted(batchIDs(batch), now)
	}
	for _, r := range batch {
		d.Trace.Stats = append(d.Trace.Stats, Stat{
			ID:       r.ID,
			Op:       r.Op,
			Sectors:  r.Count,
			Queue:    r.dispatchAt - r.enqueueAt,
			Service:  now - r.dispatchAt,
			Response: now - r.enqueueAt,
			CacheHit: acc.CacheHit,
		})
	}
	d.inflight = nil
	d.batchState = batchIdle
	for _, r := range batch {
		r.Done.Fire(d.eng)
	}
	d.kick()
	d.fireIdle()
}

func (d *Driver) fireIdle() {
	if !d.Busy() && d.idleC != nil {
		c := d.idleC
		d.idleC = nil
		c.Fire(d.eng)
	}
}

// commitBatchPrefix commits the first `sectors` sectors of a write batch in
// LBN order — the physical result of a torn or bad-sector-interrupted
// transfer — and notifies the fault observer that the media changed while
// the requests stay pending.
func (d *Driver) commitBatchPrefix(batch []*Request, sectors int, at sim.Time) {
	if sectors <= 0 {
		return
	}
	left := sectors
	lbn := d.batchLBN
	for _, r := range batch {
		if left <= 0 {
			break
		}
		n := r.Count
		if left < n {
			n = left
		}
		d.dsk.CommitPrefix(lbn, r.Data, n)
		left -= r.Count
		lbn += int64(r.Count)
	}
	if fo, ok := d.obs.(FaultObserver); ok {
		fo.BatchTorn(batchIDs(batch), sectors, at)
	}
}

// retryOrFail redispatches the batch after a backoff, or fails it once the
// retry budget is spent.
func (d *Driver) retryOrFail(batch []*Request, err error) {
	if d.batchRetries >= d.cfg.MaxRetries {
		d.failBatch(batch, err, d.eng.Now())
		return
	}
	d.batchRetries++
	d.scheduleRetry(batch)
}

// scheduleRetry parks the batch in a backoff and replans it afterwards. The
// batch stays in-flight the whole time: its requests remain pending, their
// barrier successors stay blocked, and Done does not fire — dependents can
// never observe a half-recovered write as durable.
func (d *Driver) scheduleRetry(batch []*Request) {
	d.Faults.Retries++
	backoff := d.cfg.RetryBackoff
	if d.batchRetries > 1 {
		backoff <<= d.batchRetries - 1
	}
	d.batchState = batchBackoff
	d.eng.At(d.eng.Now()+backoff, func() {
		if d.crashed {
			return
		}
		d.startBatch(batch)
	})
}

// failBatch completes every request in the in-flight batch with err.
func (d *Driver) failBatch(batch []*Request, err error, now sim.Time) {
	d.inflight = nil
	d.batchState = batchIdle
	d.batchRetries = 0
	d.fail(batch, err, now)
	d.kick()
	d.fireIdle()
}

// fail completes rs with err: they leave the pending set, unblock their
// barrier successors (a failed predecessor constrains nothing — its data
// never reached the media), are traced as failed, and fire Done with Err
// set.
func (d *Driver) fail(rs []*Request, err error, now sim.Time) {
	d.leave(rs, now)
	if fo, ok := d.obs.(FaultObserver); ok {
		fo.RequestsFailed(batchIDs(rs), now)
	}
	for _, r := range rs {
		r.Err = err
		d.Faults.Errors++
		d.Trace.Stats = append(d.Trace.Stats, Stat{
			ID:       r.ID,
			Op:       r.Op,
			Sectors:  r.Count,
			Queue:    r.dispatchAt - r.enqueueAt,
			Service:  now - r.dispatchAt,
			Response: now - r.enqueueAt,
			Failed:   true,
		})
	}
	for _, r := range rs {
		r.Done.Fire(d.eng)
	}
}

// splitReadBatch handles a permanent bad sector under a read batch: the
// requests whose range covers the sector fail (their data is gone until
// some write remaps the sector), the others go back to the end of the
// queue and are dispatched again — their barrier state is untouched, so
// ordering holds.
func (d *Driver) splitReadBatch(batch []*Request, bad int64, now sim.Time) {
	var failed []*Request
	d.inflight = nil
	d.batchState = batchIdle
	d.batchRetries = 0
	for _, r := range batch {
		if r.LBN <= bad && bad < r.end() {
			failed = append(failed, r)
		} else {
			d.enqueue(r)
		}
	}
	if len(failed) > 0 {
		d.fail(failed, ErrBadSector, now)
	}
	d.kick()
	d.fireIdle()
}

// WaitIdle blocks p until the driver has no queued or in-flight requests.
func (d *Driver) WaitIdle(p *sim.Proc) {
	for d.Busy() {
		if d.idleC == nil {
			d.idleC = sim.NewCompletion()
		}
		d.idleC.Wait(p)
	}
}

// Crash freezes the driver at the current (halted) virtual time: the
// in-flight batch commits the sector prefix the disk had physically written,
// queued requests are discarded, and no further completions fire. Call only
// after Engine.RunUntil has stopped delivering events.
func (d *Driver) Crash(at sim.Time) {
	d.crashed = true
	if len(d.inflight) == 0 {
		return
	}
	// A batch parked in a retry backoff is not touching the media: whatever
	// prefix its earlier attempt tore off was already committed at complete()
	// time, and nothing further lands between attempts.
	if d.batchState != batchTransferring {
		return
	}
	elapsed := at - d.batchDispatch
	transferred := elapsed - d.batchAccess.Positioning
	var sectorsDone int
	if transferred > 0 && d.batchAccess.PerSector > 0 {
		sectorsDone = int(transferred / d.batchAccess.PerSector)
	}
	// The current attempt's own fault bounds what this transfer can commit:
	// a transient failure aborts during positioning (nothing lands), a torn
	// or bad-sector write stops at the fault point even if the elapsed-time
	// estimate says more sectors would have fit.
	switch d.batchAccess.Fault.Kind {
	case fault.Transient:
		sectorsDone = 0
	case fault.Torn, fault.BadSector:
		if sectorsDone > d.batchAccess.Fault.TornSectors {
			sectorsDone = d.batchAccess.Fault.TornSectors
		}
	}
	// Sectors commit in LBN order across the batch.
	lbn := d.batchLBN
	for _, r := range d.inflight {
		if sectorsDone <= 0 {
			break
		}
		if r.Op == disk.Write {
			n := r.Count
			if sectorsDone < n {
				n = sectorsDone
			}
			d.dsk.CommitPrefix(lbn, r.Data, n)
		}
		sectorsDone -= r.Count
		lbn += int64(r.Count)
	}
}

// PendingIDs returns the IDs of all pending requests in submission order
// (exposed for the ordering layer and for tests).
func (d *Driver) PendingIDs() []uint64 {
	ids := make([]uint64, 0, len(d.pending))
	for r := d.byID.head; r != nil; r = r.idLink.next {
		ids = append(ids, r.ID)
	}
	return ids
}

// IsPending reports whether request id has not yet completed.
func (d *Driver) IsPending(id uint64) bool {
	_, ok := d.pending[id]
	return ok
}

// link threads a request through one ID-ordered list.
type link struct{ prev, next *Request }

// idList is an intrusive doubly linked list of pending requests in ID
// order. Requests join at the tail (IDs are assigned in submission order)
// and leave from anywhere, so the head is the list's low-water mark.
type idList struct {
	head, tail *Request
	flagged    bool // threads Request.flagLink rather than Request.idLink
}

func (l *idList) link(r *Request) *link {
	if l.flagged {
		return &r.flagLink
	}
	return &r.idLink
}

func (l *idList) push(r *Request) {
	*l.link(r) = link{prev: l.tail}
	if l.tail != nil {
		l.link(l.tail).next = r
	} else {
		l.head = r
	}
	l.tail = r
}

func (l *idList) remove(r *Request) {
	ln := l.link(r)
	if ln.prev != nil {
		l.link(ln.prev).next = ln.next
	} else {
		l.head = ln.next
	}
	if ln.next != nil {
		l.link(ln.next).prev = ln.prev
	} else {
		l.tail = ln.prev
	}
	*ln = link{}
}

// drainWait is a request waiting until no request with ID <= upto remains
// on a list.
type drainWait struct {
	r    *Request
	upto uint64
}

// drainQueue holds one list's watermark waiters in ascending upto order, so
// releasing them is popping from the front.
type drainQueue struct {
	w    []drainWait
	head int // w[:head] are released
}

// push appends a waiter. Bounds arrive in ascending order: Part and chains
// wait on r.ID-1, which grows with every submission; Back waits on
// lastFlagID, which never shrinks; Full waits on r.ID-1 for a flagged r,
// after which lastFlagID = r.ID.
func (q *drainQueue) push(w drainWait) {
	if n := len(q.w); n > q.head && q.w[n-1].upto > w.upto {
		panic("dev: drain watermark waiters out of order")
	}
	if q.head > 0 && q.head >= len(q.w)/2 {
		n := copy(q.w, q.w[q.head:])
		clear(q.w[n:])
		q.w, q.head = q.w[:n], 0
	}
	q.w = append(q.w, w)
}

// lbnEntry is one request in an lbnIndex, with its sort key and what a
// conflict check needs inline.
type lbnEntry struct {
	lbn   int64
	key   uint64
	r     *Request
	count int32
	write bool
}

// conflicts is conflicts(r, e.r).
func (e *lbnEntry) conflicts(r *Request) bool {
	return e.lbn < r.end() && r.LBN < e.lbn+int64(e.count) && (e.write || r.Op == disk.Write)
}

// covers reports whether e, the entry after p in an index keyed by ID,
// is a later pending write over at least p's range. Such a write conflicts
// with p, so it cannot be dispatched, let alone leave the pending set,
// before p has left: a request that conflicts with p also conflicts with
// e, and waiting for e alone releases it at the same instant as waiting
// for both. Piles of rewrites of one block are common (Part-NR/CB queues
// dozens), and this keeps their edges from growing with the pile.
func (e *lbnEntry) covers(p *lbnEntry) bool {
	return e.write && e.lbn == p.lbn && e.count >= p.count
}

// lbnShift sizes an lbnIndex bucket: 256 sectors, 128 KB of disk.
const lbnShift = 8

// lbnIndex is a set of requests ordered by (LBN, key). Bucket b holds the
// entries with LBN>>lbnShift == b (the last bucket also any beyond the
// disk) as a sorted slice, and bit b of nonEmpty says whether it has any.
// An insert or delete moves only its bucket's entries; a range lookup
// searches only the buckets the range spans, and finding the next entry
// past an empty stretch scans a bitmap word per 64 buckets.
type lbnIndex struct {
	buckets  [][]lbnEntry
	nonEmpty []uint64
	n        int // entries
}

func newLBNIndex(sectors int64) lbnIndex {
	nb := int(sectors>>lbnShift) + 1
	return lbnIndex{buckets: make([][]lbnEntry, nb), nonEmpty: make([]uint64, (nb+63)/64)}
}

func (x *lbnIndex) bucket(lbn int64) int {
	return int(min(max(lbn, 0)>>lbnShift, int64(len(x.buckets)-1)))
}

// searchEntries returns the position of the first entry of s at or after
// (lbn, key).
func searchEntries(s []lbnEntry, lbn int64, key uint64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e := s[m]; e.lbn < lbn || e.lbn == lbn && e.key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (x *lbnIndex) insert(r *Request, key uint64) {
	b := x.bucket(r.LBN)
	s := x.buckets[b]
	x.buckets[b] = slices.Insert(s, searchEntries(s, r.LBN, key), lbnEntry{
		lbn: r.LBN, key: key, r: r, count: int32(r.Count), write: r.Op == disk.Write,
	})
	x.nonEmpty[b/64] |= 1 << (b % 64)
	x.n++
}

func (x *lbnIndex) remove(r *Request, key uint64) {
	b := x.bucket(r.LBN)
	s := x.buckets[b]
	i := searchEntries(s, r.LBN, key)
	if i == len(s) || s[i].r != r {
		panic("dev: request missing from its LBN index")
	}
	s = slices.Delete(s, i, i+1)
	x.buckets[b] = s
	if len(s) == 0 {
		x.nonEmpty[b/64] &^= 1 << (b % 64)
	}
	x.n--
}

// ceil returns the lowest-keyed request at the smallest LBN >= lbn, or
// nil if there is none.
func (x *lbnIndex) ceil(lbn int64) *Request {
	b := x.bucket(lbn)
	if s := x.buckets[b]; len(s) > 0 {
		if i := searchEntries(s, lbn, 0); i < len(s) {
			return s[i].r
		}
	}
	// The first entry of the first non-empty bucket after b.
	b++
	w := b / 64
	if w >= len(x.nonEmpty) {
		return nil
	}
	word := x.nonEmpty[w] &^ (1<<(b%64) - 1)
	for word == 0 {
		if w++; w == len(x.nonEmpty) {
			return nil
		}
		word = x.nonEmpty[w]
	}
	return x.buckets[w*64+bits.TrailingZeros64(word)][0].r
}

// first returns the lowest-keyed request starting exactly at lbn with
// operation op, or nil.
func (x *lbnIndex) first(lbn int64, op disk.Op) *Request {
	s := x.buckets[x.bucket(lbn)]
	for i := searchEntries(s, lbn, 0); i < len(s) && s[i].lbn == lbn; i++ {
		if s[i].r.Op == op {
			return s[i].r
		}
	}
	return nil
}
