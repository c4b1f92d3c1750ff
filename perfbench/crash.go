package main

import (
	"bytes"
	"fmt"
	"strings"

	"metaupdate/fsim"
	"metaupdate/internal/crashmc"
	"metaupdate/internal/fsck"
	"metaupdate/internal/harness"
	"metaupdate/internal/workload"
)

// The crash-sweep matrix: every scheme records the 1 KB create/remove
// workload and explores a fixed budget of its crash states.
const (
	crashFiles   = 30
	crashBudget  = 3000
	crashWorkers = 2
)

// schemeNames are the schemes of the matrix in report order, by the names
// mdcheck takes.
var schemeNames = []struct {
	scheme fsim.Scheme
	name   string
}{
	{fsim.Conventional, "conventional"},
	{fsim.SchedulerFlag, "flag"},
	{fsim.SchedulerChains, "chains"},
	{fsim.SoftUpdates, "softupdates"},
	{fsim.NoOrder, "noorder"},
	{fsim.Journaling, "journaling"},
	{fsim.AsyncDurability, "async"},
}

// crashSweep is the `mdcheck` matrix. Set-up records the seven write
// timelines; the timed part explores them. Its input is fixed: the seed
// changes nothing.
type crashSweep struct {
	// Per repetition, from setup.
	systems []*fsim.System
	recs    []*crashmc.Recorder
}

// mcConfig bounds one scheme's exploration. Journal replay, which the
// journaling contract needs before the oracle, is added by the caller
// (harness.CrashCheck adds its own).
func mcConfig() crashmc.Config {
	return crashmc.Config{Workers: crashWorkers, Budget: crashBudget}
}

// setup records every scheme's write timeline exactly as
// harness.CrashCheck does: a fresh 6 MB file system, the recorder
// attached after mount, then create, sync, remove, sync.
func (w *crashSweep) setup(tr *tracer, root int) error {
	w.systems = make([]*fsim.System, len(schemeNames))
	w.recs = make([]*crashmc.Recorder, len(schemeNames))
	for i, s := range schemeNames {
		rid := tr.begin("crashmc.record/"+s.name, root)
		id := tr.begin("fsim.New", rid)
		sys, err := fsim.New(fsim.Options{Scheme: s.scheme, DiskBytes: 6 << 20, NInodes: 1024, CacheBytes: 2 << 20})
		tr.end(id)
		if err != nil {
			return fmt.Errorf("crash-sweep %s: %w", s.name, err)
		}
		w.systems[i] = sys
		w.recs[i] = crashmc.Attach(sys.Driver, sys.Disk)
		id = tr.begin("fsim.run", rid)
		var werr error
		sys.Run(func(p *fsim.Proc) { werr = createRemove(p, sys) })
		tr.end(id)
		tr.end(rid)
		if werr != nil {
			return fmt.Errorf("crash-sweep %s: %w", s.name, werr)
		}
	}
	return nil
}

// createRemove is harness.CrashCheck's workload.
func createRemove(p *fsim.Proc, sys *fsim.System) error {
	dir, err := sys.FS.Mkdir(p, fsim.RootIno, "mc")
	if err != nil {
		return err
	}
	if err := workload.CreateFiles(p, sys.FS, dir, crashFiles, 1024); err != nil {
		return err
	}
	sys.FS.Sync(p)
	if err := workload.RemoveFiles(p, sys.FS, dir, crashFiles); err != nil {
		return err
	}
	sys.FS.Sync(p)
	return nil
}

// run explores every recorded timeline. An explored state fails when it
// violates an ordered scheme's contract; No Order must violate somewhere.
func (w *crashSweep) run(tr *tracer, root int) *repResult {
	res := &repResult{counts: map[string]float64{}}
	results := make([]*crashmc.Result, len(schemeNames))
	for i, s := range schemeNames {
		cfg := mcConfig()
		if s.scheme == fsim.Journaling {
			cfg.Recover = func(img []byte) { fsck.ReplayJournal(img) }
		}
		id := tr.begin("crashmc.explore/"+s.name, root)
		results[i] = w.recs[i].Explore(cfg)
		tr.end(id)
	}
	for i, r := range results {
		st := r.Stats
		res.attempted += int(st.Explored)
		res.counts["crashmc.explored"] += float64(st.Explored)
		res.counts["crashmc.deduped"] += float64(st.Deduped)
		res.counts["crashmc.checked"] += float64(st.Checked)
		res.counts["crashmc.baseline_builds"] += float64(st.BaselineBuilds)
		if p := verdictProblem(schemeNames[i].scheme, st); p != "" {
			res.problems = append(res.problems, p)
			if st.Violating > 0 {
				res.failed += int(st.Violating)
			}
		}
	}
	res.out = crashCounts(results)
	return res
}

// verdictProblem checks one scheme's verdict: ordered schemes leave no
// violating crash state, No Order leaves some.
func verdictProblem(s fsim.Scheme, st crashmc.Stats) string {
	if s == fsim.NoOrder && st.Violating == 0 {
		return fmt.Sprintf("%v: no violating crash state, but No Order promises no ordering", s)
	}
	if s != fsim.NoOrder && st.Violating > 0 {
		return fmt.Sprintf("%v: %d violating crash states", s, st.Violating)
	}
	return ""
}

// crashCounts renders the deterministic counts of a sweep, one line per
// scheme in report order.
func crashCounts(results []*crashmc.Result) []byte {
	var b strings.Builder
	for i, r := range results {
		st := r.Stats
		fmt.Fprintf(&b, "%s requests=%d writes=%d instants=%d explored=%d deduped=%d checked=%d violating=%d\n",
			schemeNames[i].name, st.Requests, st.Writes, st.Instants, st.Explored, st.Deduped, st.Checked, st.Violating)
	}
	return []byte(b.String())
}

func (w *crashSweep) teardown(tr *tracer, root int) {
	for _, sys := range w.systems {
		if sys == nil {
			continue
		}
		id := tr.begin("fsim.shutdown", root)
		sys.Shutdown()
		tr.end(id)
	}
	w.systems, w.recs = nil, nil
}

// verify re-runs the matrix through harness.CrashCheck, the path mdcheck
// takes, and requires the same counts as the benchmark's own recording.
func (w *crashSweep) verify(out []byte) []string {
	results := make([]*crashmc.Result, len(schemeNames))
	for i, s := range schemeNames {
		r, err := harness.CrashCheck(s.scheme, harness.CrashCheckOptions{Files: crashFiles, MC: mcConfig()})
		if err != nil {
			return []string{fmt.Sprintf("harness.CrashCheck %s: %v", s.name, err)}
		}
		results[i] = r
	}
	if want := crashCounts(results); !bytes.Equal(out, want) {
		return []string{fmt.Sprintf("crash counts differ from harness.CrashCheck:\n%s---\n%s", out, want)}
	}
	return nil
}

// layers reports the host times of recording and exploring, and of the
// recording's fsim calls.
func (w *crashSweep) layers(sums, m map[string]float64) {
	for _, s := range schemeNames {
		m["crashmc.record_s"] += sums["crashmc.record/"+s.name]
		m["crashmc.explore_s."+s.name] = sums["crashmc.explore/"+s.name]
	}
	m["fsim.new_s"] = sums["fsim.New"]
	m["fsim.run_s"] = sums["fsim.run"]
	m["fsim.shutdown_s"] = sums["fsim.shutdown"]
}
