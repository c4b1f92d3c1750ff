package dev

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"metaupdate/internal/disk"
	"metaupdate/internal/fault"
	"metaupdate/internal/sim"
)

// The driver computes barriers through an LBN index, drain watermarks and
// direct pending lookups, and dispatches from an LBN-ordered eligible set.
// This file pins it to a reference model written the direct way: every
// request's barrier is Predecessors over the whole pending set, readiness
// is that set running empty, and every dispatch decision scans the whole
// queue. Both run the same randomized request stream — overlapping
// ranges, contiguous runs, flags, DependsOn lists naming completed,
// pending and repeated IDs — on identically faulted disks, and must agree
// on every observable: the completion/tear/failure event sequence with its
// batches, the trace, each request's ReadyTime and DispatchTime, the
// observer's predecessor sets, OrderingStalls and the fault counters.

// refReq is one request in the reference model.
type refReq struct {
	Request
	wait                           map[uint64]struct{} // pending predecessors
	enqueueAt, readyAt, dispatchAt sim.Time
}

// refDriver is the reference model of Driver.
type refDriver struct {
	eng *sim.Engine
	dsk *disk.Disk
	cfg Config

	nextID, lastFlagID uint64
	queue              []*refReq // submission order; requeued reads at the end
	inflight           []*refReq
	pending            []*refReq // ID order
	headLBN            int64
	acc                disk.Access
	retries            int

	stalls   int64
	maxQ     int
	requeued int // reads sent back to the queue by a bad sector
	faults   FaultStats
	stats    []Stat
	log      []string
	preds    map[uint64][]uint64
}

func newRefDriver(eng *sim.Engine, dsk *disk.Disk, cfg Config) *refDriver {
	if cfg.MaxConcat <= 0 {
		cfg.MaxConcat = DefaultMaxConcat
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	return &refDriver{eng: eng, dsk: dsk, cfg: cfg, preds: make(map[uint64][]uint64)}
}

func (d *refDriver) submit(q Request) *refReq {
	now := d.eng.Now()
	d.nextID++
	r := &refReq{Request: q, enqueueAt: now}
	r.ID = d.nextID
	prior := make([]*Request, len(d.pending))
	for i, p := range d.pending {
		prior[i] = &p.Request
	}
	r.wait = Predecessors(d.cfg, &r.Request, prior, d.lastFlagID)
	ids := make([]uint64, 0, len(r.wait))
	stall := false
	for _, p := range d.pending {
		if _, ok := r.wait[p.ID]; ok {
			ids = append(ids, p.ID)
			stall = stall || !conflicts(&r.Request, &p.Request)
		}
	}
	if stall {
		d.stalls++
	}
	d.preds[r.ID] = ids
	if len(r.wait) == 0 {
		r.readyAt = now
	}
	d.queue = append(d.queue, r)
	d.pending = append(d.pending, r)
	if r.Flag && d.cfg.Mode == ModeFlag {
		d.lastFlagID = r.ID
	}
	d.maxQ = max(d.maxQ, len(d.queue))
	d.kick()
	return r
}

func (d *refDriver) kick() {
	if len(d.inflight) > 0 {
		return
	}
	var ahead, first *refReq
	for _, r := range d.queue {
		if len(r.wait) > 0 {
			continue
		}
		if first == nil || r.LBN < first.LBN {
			first = r
		}
		if r.LBN >= d.headLBN && (ahead == nil || r.LBN < ahead.LBN) {
			ahead = r
		}
	}
	pick := ahead
	if pick == nil {
		pick = first
	}
	if pick == nil {
		return
	}
	batch := []*refReq{pick}
	total, end := pick.Count, pick.end()
	for total < d.cfg.MaxConcat {
		var next *refReq
		for _, r := range d.queue {
			if r != pick && len(r.wait) == 0 && r.Op == pick.Op && r.LBN == end {
				next = r
				break
			}
		}
		if next == nil || total+next.Count > d.cfg.MaxConcat {
			break
		}
		batch = append(batch, next)
		total += next.Count
		end = next.end()
	}
	now := d.eng.Now()
	for _, r := range batch {
		r.dispatchAt = now
		d.queue = slices.DeleteFunc(d.queue, func(q *refReq) bool { return q == r })
	}
	d.inflight = batch
	d.retries = 0
	d.headLBN = batch[0].LBN + int64(total)
	d.start()
}

func (d *refDriver) start() {
	total := 0
	for _, r := range d.inflight {
		total += r.Count
	}
	now := d.eng.Now()
	d.acc = d.dsk.Plan(now, d.inflight[0].Op, d.inflight[0].LBN, total)
	d.eng.At(now+d.acc.Service, d.complete)
}

func refIDs(rs []*refReq) []uint64 {
	ids := make([]uint64, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

func (d *refDriver) complete() {
	batch, now := d.inflight, d.eng.Now()
	switch f := d.acc.Fault; f.Kind {
	case fault.Torn:
		d.faults.Torn++
		d.tear(f.TornSectors)
		d.retryOrFail()
		return
	case fault.Transient:
		d.faults.Transient++
		d.retryOrFail()
		return
	case fault.BadSector:
		d.faults.BadSectors++
		if batch[0].Op == disk.Write {
			d.tear(f.TornSectors)
			if d.dsk.Remap(f.Sector) {
				d.faults.Remaps++
				d.retry()
				return
			}
			d.inflight, d.retries = nil, 0
			d.fail(batch, now)
			d.kick()
			return
		}
		var failed []*refReq
		d.inflight, d.retries = nil, 0
		for _, r := range batch {
			if r.LBN <= f.Sector && f.Sector < r.end() {
				failed = append(failed, r)
			} else {
				d.queue = append(d.queue, r)
				d.requeued++
			}
		}
		if len(failed) > 0 {
			d.fail(failed, now)
		}
		d.kick()
		return
	}
	d.leave(batch, now)
	d.log = append(d.log, fmt.Sprint("done ", refIDs(batch), " @", int64(now)))
	for _, r := range batch {
		d.stats = append(d.stats, Stat{ID: r.ID, Op: r.Op, Sectors: r.Count,
			Queue: r.dispatchAt - r.enqueueAt, Service: now - r.dispatchAt,
			Response: now - r.enqueueAt, CacheHit: d.acc.CacheHit})
	}
	d.inflight = nil
	d.kick()
}

func (d *refDriver) tear(sectors int) {
	if sectors > 0 {
		d.log = append(d.log, fmt.Sprint("torn ", refIDs(d.inflight), " ", sectors, " @", int64(d.eng.Now())))
	}
}

func (d *refDriver) retryOrFail() {
	if d.retries >= d.cfg.MaxRetries {
		batch := d.inflight
		d.inflight, d.retries = nil, 0
		d.fail(batch, d.eng.Now())
		d.kick()
		return
	}
	d.retries++
	d.retry()
}

func (d *refDriver) retry() {
	d.faults.Retries++
	backoff := d.cfg.RetryBackoff
	if d.retries > 1 {
		backoff <<= d.retries - 1
	}
	d.eng.At(d.eng.Now()+backoff, d.start)
}

func (d *refDriver) fail(rs []*refReq, now sim.Time) {
	d.leave(rs, now)
	d.log = append(d.log, fmt.Sprint("failed ", refIDs(rs), " @", int64(now)))
	for _, r := range rs {
		d.faults.Errors++
		d.stats = append(d.stats, Stat{ID: r.ID, Op: r.Op, Sectors: r.Count,
			Queue: r.dispatchAt - r.enqueueAt, Service: now - r.dispatchAt,
			Response: now - r.enqueueAt, Failed: true})
	}
}

// leave drops rs from the pending set and from every waiting request's
// predecessor set; a request whose set runs empty becomes ready now.
func (d *refDriver) leave(rs []*refReq, now sim.Time) {
	for _, r := range rs {
		d.pending = slices.DeleteFunc(d.pending, func(q *refReq) bool { return q == r })
	}
	for _, p := range d.pending {
		if len(p.wait) == 0 {
			continue
		}
		for _, r := range rs {
			delete(p.wait, r.ID)
		}
		if len(p.wait) == 0 {
			p.readyAt = now
		}
	}
}

// logObserver records the real driver's observer timeline in the reference
// model's format.
type logObserver struct {
	log   []string
	preds map[uint64][]uint64
}

func (o *logObserver) RequestSubmitted(r *Request, preds []uint64) {
	o.preds[r.ID] = slices.Clone(preds)
}

func (o *logObserver) RequestsCompleted(ids []uint64, at sim.Time) {
	o.log = append(o.log, fmt.Sprint("done ", ids, " @", int64(at)))
}

func (o *logObserver) BatchTorn(ids []uint64, sectors int, at sim.Time) {
	o.log = append(o.log, fmt.Sprint("torn ", ids, " ", sectors, " @", int64(at)))
}

func (o *logObserver) RequestsFailed(ids []uint64, at sim.Time) {
	o.log = append(o.log, fmt.Sprint("failed ", ids, " @", int64(at)))
}

// diffStream is one randomized request stream: a request template and the
// think time before the next submission.
type diffStream struct {
	reqs   []Request
	sleeps []sim.Duration
}

// window confines most of the stream to a few hundred sectors so ranges
// overlap, runs are contiguous, and the injected bad sectors get hit; the
// rest spreads over the whole disk, across the LBN index's buckets.
const window = 512

// diffSectors is the disk size of the differential runs, in sectors.
const diffSectors = (64 << 20) / disk.SectorSize

func newDiffStream(cfg Config, rng *rand.Rand, n int) diffStream {
	var s diffStream
	var end int64
	for i := 0; i < n; i++ {
		count := 1 + rng.Intn(8)
		if rng.Intn(40) == 0 {
			count = 24 + rng.Intn(40)
		}
		lbn := rng.Int63n(window - int64(count))
		switch rng.Intn(6) {
		case 0, 1:
			if end+int64(count) <= diffSectors {
				lbn = end // contiguous with the previous request: concatenation
			}
		case 2:
			lbn = rng.Int63n(diffSectors - int64(count))
		}
		end = lbn + int64(count)
		r := Request{LBN: lbn, Count: count, Flag: rng.Intn(4) == 0}
		if rng.Intn(3) == 0 {
			r.Op = disk.Read
		} else {
			r.Op = disk.Write
		}
		if cfg.Mode == ModeChains && i > 0 {
			for k := rng.Intn(4); k > 0; k-- {
				// IDs 1..i are earlier requests: some completed, some
				// pending, some named twice.
				r.DependsOn = append(r.DependsOn, uint64(1+rng.Intn(i)))
			}
		}
		s.reqs = append(s.reqs, r)
		var sleep sim.Duration
		if rng.Intn(2) == 0 {
			sleep = sim.Duration(rng.Int63n(int64(15 * sim.Millisecond)))
		}
		s.sleeps = append(s.sleeps, sleep)
	}
	return s
}

// payload returns a fresh copy of q with its data or read buffer attached.
func payload(q Request) *Request {
	q.DependsOn = slices.Clone(q.DependsOn)
	if q.Op == disk.Write {
		q.Data = make([]byte, q.Count*disk.SectorSize)
		for i := range q.Data {
			q.Data[i] = byte(q.LBN) + 1
		}
	} else {
		q.Buf = make([]byte, q.Count*disk.SectorSize)
	}
	return &q
}

// faultedDisk returns a disk with spec's faults confined to the window.
func faultedDisk(spec fault.Spec, spares int) *disk.Disk {
	dsk := disk.New(disk.HPC2447(), diffSectors*disk.SectorSize)
	if spec.Enabled() {
		dsk.SetFaults(fault.New(spec, window), spares)
	}
	return dsk
}

// runDifferential runs s through both and compares them. It returns the
// reference model, whose counters show which paths the stream reached.
func runDifferential(t *testing.T, cfg Config, spec fault.Spec, spares int, s diffStream, observe bool) *refDriver {
	t.Helper()
	// The driver under test.
	eng := sim.NewEngine()
	drv := New(eng, faultedDisk(spec, spares), cfg)
	ob := &logObserver{preds: make(map[uint64][]uint64)}
	if observe {
		drv.SetObserver(ob)
	}
	var got []*Request
	eng.Spawn("submitter", func(p *sim.Proc) {
		for i, tmpl := range s.reqs {
			got = append(got, drv.Submit(payload(tmpl)))
			p.Sleep(s.sleeps[i])
		}
	})
	eng.Run()

	// The reference model.
	reng := sim.NewEngine()
	ref := newRefDriver(reng, faultedDisk(spec, spares), cfg)
	var want []*refReq
	reng.Spawn("submitter", func(p *sim.Proc) {
		for i, tmpl := range s.reqs {
			want = append(want, ref.submit(*payload(tmpl)))
			p.Sleep(s.sleeps[i])
		}
	})
	reng.Run()

	if drv.Busy() || len(ref.queue)+len(ref.inflight) > 0 {
		t.Fatalf("requests left over: driver queued %d, reference %d", drv.QueueLen(), len(ref.queue))
	}
	if observe {
		if !slices.Equal(ob.log, ref.log) {
			t.Fatalf("event sequence differs\n got %v\nwant %v", ob.log, ref.log)
		}
		for id, w := range ref.preds {
			if g := ob.preds[id]; !slices.Equal(g, w) {
				t.Fatalf("request %d: observer predecessors %v, want %v", id, g, w)
			}
		}
	}
	if !slices.Equal(drv.Trace.Stats, ref.stats) {
		t.Fatalf("trace differs\n got %v\nwant %v", drv.Trace.Stats, ref.stats)
	}
	for i, r := range got {
		w := want[i]
		if r.ID != w.ID || r.ReadyTime() != w.readyAt || r.DispatchTime() != w.dispatchAt {
			t.Fatalf("request %d: ready %v dispatch %v, want ready %v dispatch %v",
				r.ID, r.ReadyTime(), r.DispatchTime(), w.readyAt, w.dispatchAt)
		}
	}
	if drv.OrderingStalls != ref.stalls || drv.Faults != ref.faults || drv.Trace.MaxQueueLen != ref.maxQ {
		t.Fatalf("stalls %d faults %+v max queue %d, want %d %+v %d",
			drv.OrderingStalls, drv.Faults, drv.Trace.MaxQueueLen, ref.stalls, ref.faults, ref.maxQ)
	}
	return ref
}

// TestDriverMatchesReferenceModel runs every Mode × Sem × NR over clean and
// faulted disks, with and without an observer attached (the driver
// enumerates the exact predecessor set only for an observer).
func TestDriverMatchesReferenceModel(t *testing.T) {
	n, seeds := 300, 3
	if testing.Short() {
		n, seeds = 120, 1
	}
	faulted := fault.Spec{TransientPer10k: 600, TornPer10k: 800, LatencyPer10k: 300, BadSectors: 6}
	var reached FaultStats
	var requeued int
	var stalls int64
	for _, mode := range []OrderMode{ModeIgnore, ModeFlag, ModeChains} {
		for _, sem := range []FlagSemantics{SemFull, SemBack, SemPart} {
			for _, nr := range []bool{false, true} {
				cfg := Config{Mode: mode, Sem: sem, NR: nr}
				t.Run(fmt.Sprintf("mode%d/%v/NR=%v", mode, sem, nr), func(t *testing.T) {
					for seed := int64(1); seed <= int64(seeds); seed++ {
						rng := rand.New(rand.NewSource(seed*1000 + int64(mode)*100 + int64(sem)*10))
						s := newDiffStream(cfg, rng, n)
						c := cfg
						if seed%2 == 0 {
							c.MaxConcat = 16 // the cap ends batches
						}
						clean := fault.Spec{}
						hurt := faulted
						hurt.Seed = seed
						hurt.LatencySpikeMS = 5
						for _, observe := range []bool{true, false} {
							stalls += runDifferential(t, c, clean, 0, s, observe).stalls
							// Two spares run out: later bad-sector writes fail.
							fc := c
							fc.MaxRetries = 1 + int(seed%3)
							ref := runDifferential(t, fc, hurt, 2, s, observe)
							f := ref.faults
							reached.Transient += f.Transient
							reached.Torn += f.Torn
							reached.BadSectors += f.BadSectors
							reached.Remaps += f.Remaps
							reached.Errors += f.Errors
							requeued += ref.requeued
						}
					}
				})
			}
		}
	}
	// The streams must reach every recovery path and real ordering stalls.
	if reached.Transient == 0 || reached.Torn == 0 || reached.BadSectors == 0 ||
		reached.Remaps == 0 || reached.Errors == 0 || requeued == 0 || stalls == 0 {
		t.Fatalf("streams missed a path: faults %+v, requeued reads %d, stalls %d", reached, requeued, stalls)
	}
}
