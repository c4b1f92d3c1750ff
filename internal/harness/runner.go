package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"metaupdate/internal/disk"
)

// Runner executes Cells on a bounded worker pool and memoizes their
// results by memoKey, so a cell shared between exhibits (or requested
// twice by one exhibit) simulates exactly once per Runner.
//
// Determinism argument: a cell's result is a pure function of its value —
// each run builds a private fsim.System and executes entirely in virtual
// time, and the packages underneath keep no mutable package-level state
// (sim proc IDs are per-engine; workload randomness is seeded per spec).
// The runner therefore changes only *when* and *on which goroutine* a cell
// runs, never what it computes, and callers assemble tables from results
// in declaration order. Emitted tables are byte-identical at any worker
// count and whether the memo was cold or warm; only the real-time Wall
// fields and the runner's timing counters vary between runs.
type Runner struct {
	workers int
	sem     chan struct{}

	mu   sync.Mutex
	memo map[memoKey]*cellEntry

	hits   int // Get calls served from the memo (including in-flight joins)
	misses int // Get calls that executed the simulation
}

// memoKey is a cell's identity: the Cell value itself, with the one
// pointer in it (Opt.DiskParams) replaced by the parameters it points at.
// A nil DiskParams keys as disk.HPC2447(), the disk fsim mounts for it.
// Every other field joins the key by being in Cell, so a field added
// later is keyed without anyone listing it, and a non-comparable one
// fails to compile here.
type memoKey struct {
	cell Cell
	disk disk.Params
}

func keyOf(c Cell) memoKey {
	k := memoKey{disk: disk.HPC2447()}
	if c.Opt.DiskParams != nil {
		k.disk = *c.Opt.DiskParams
	}
	c.Opt.DiskParams = nil
	k.cell = c
	return k
}

type cellEntry struct {
	done chan struct{} // closed once res is final
	res  CellResult
}

// NewRunner returns a runner executing at most workers cells at once;
// workers <= 0 selects GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		workers: workers,
		sem:     make(chan struct{}, workers),
		memo:    make(map[memoKey]*cellEntry),
	}
}

// Workers reports the pool size.
func (r *Runner) Workers() int { return r.workers }

// Get returns the cell's result, running the simulation if this
// key has not been seen before and blocking until it is available.
// Concurrent Gets of the same cell coalesce onto one execution.
func (r *Runner) Get(c Cell) CellResult { return r.get(c, true) }

// lookup is Get without touching the hit counter: exhibits assembling
// tables from an already-warmed memo use it so Hits counts only genuine
// reuse (the same cell declared by several exhibits or rows), not the
// assembly pass re-reading its own prefetch.
func (r *Runner) lookup(c Cell) CellResult { return r.get(c, false) }

func (r *Runner) get(c Cell, countHit bool) CellResult {
	k := keyOf(c)
	r.mu.Lock()
	if e, ok := r.memo[k]; ok {
		if countHit {
			r.hits++
		}
		r.mu.Unlock()
		<-e.done
		return e.res
	}
	e := &cellEntry{done: make(chan struct{})}
	r.memo[k] = e
	r.misses++
	r.mu.Unlock()

	r.sem <- struct{}{} // pool slot; waiters on e.done hold none
	start := time.Now()
	res := c.run()
	res.Wall = time.Since(start)
	<-r.sem

	e.res = res
	close(e.done)
	return res
}

// All resolves every cell concurrently (subject to the pool bound) and
// returns the results in input order.
func (r *Runner) All(cells []Cell) []CellResult {
	out := make([]CellResult, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c Cell) {
			defer wg.Done()
			out[i] = r.Get(c)
		}(i, c)
	}
	wg.Wait()
	return out
}

// RunnerStats is a snapshot of the runner's reuse and cost counters. Hits
// and Executed depend only on the multiset of cells requested (executed =
// distinct keys), not on scheduling; CellWall is real time and
// does vary.
type RunnerStats struct {
	Workers  int     `json:"workers"`
	Executed int     `json:"executed"`  // distinct cells simulated
	Hits     int     `json:"memo_hits"` // requests served without simulating
	CellWall float64 `json:"cell_wall_sec"`
}

// Stats snapshots the counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RunnerStats{Workers: r.workers, Executed: r.misses, Hits: r.hits}
	for _, e := range r.memo {
		select {
		case <-e.done:
			s.CellWall += e.res.Wall.Seconds()
		default:
		}
	}
	return s
}

// CellTiming reports one executed cell's identity (its key, printed
// with %+v) and cost.
type CellTiming struct {
	Cell    string  `json:"cell"`
	WallSec float64 `json:"wall_sec"`
}

// CellTimings lists every completed cell sorted by printed key, for the
// machine-readable report.
func (r *Runner) CellTimings() []CellTiming {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CellTiming, 0, len(r.memo))
	for k, e := range r.memo {
		select {
		case <-e.done:
			out = append(out, CellTiming{Cell: fmt.Sprintf("%+v", k), WallSec: e.res.Wall.Seconds()})
		default:
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}
