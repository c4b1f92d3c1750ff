package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"metaupdate/fsim"
	"metaupdate/internal/harness"
	"metaupdate/internal/scenario"
)

// goldenSeed is the arrival seed load-0.05.txt was generated with.
const goldenSeed = 1

// openMail runs the `mdsim -load` sweep: the mail scenario on Poisson
// arrivals at each offered load, under every scheme. The benchmark runs
// each cell itself, so it holds each fsim.System, and assembles the
// report through the exhibit's Build hook. The seed is the arrival (and
// scenario) seed; at the golden seed the report must equal load-0.05.txt.
type openMail struct {
	seed   int64
	golden []byte // load-0.05.txt; nil off the golden seed

	// Per repetition, from setup.
	cfg   harness.Config
	cells []harness.Cell
}

func newOpenMail(root string, seed int64) (*openMail, error) {
	w := &openMail{seed: seed}
	if seed == goldenSeed {
		text, err := os.ReadFile(filepath.Join(root, "internal/harness/testdata/load-0.05.txt"))
		if err != nil {
			return nil, err
		}
		w.golden = text
	}
	return w, nil
}

// setup declares the sweep's cells and gives them the workload seed.
func (w *openMail) setup(*tracer, int) error {
	w.cfg = harness.DefaultConfig(io.Discard)
	w.cfg.Scale = benchScale
	w.cells = harness.LoadCurveExhibit.Cells(w.cfg)
	for i := range w.cells {
		w.cells[i].Opt.OpenLoop.Arrival.Seed = w.seed
	}
	return nil
}

// run simulates every cell on a fresh system and checks that each
// arrival completed or was counted as dropped; at the golden seed each
// cell's rows must also match the golden report.
func (w *openMail) run(tr *tracer, root int) *repResult {
	res := &repResult{counts: map[string]float64{}}
	results := make([]harness.CellResult, len(w.cells))
	bad := make([]bool, len(w.cells))
	for i, c := range w.cells {
		cid := tr.begin("cell/openloop", root)
		r, st, err := runCell(tr, cid, c.Opt)
		tr.end(cid)
		if err == nil && (r.Issued != c.Opt.OpenLoop.Ops || r.Completed+r.Dropped != r.Issued) {
			err = fmt.Errorf("issued %d of %d, completed %d + dropped %d", r.Issued, c.Opt.OpenLoop.Ops, r.Completed, r.Dropped)
		}
		if err != nil {
			bad[i] = true
			res.problems = append(res.problems, fmt.Sprintf("open-mail cell %d (%v @%d/s): %v",
				i, c.Opt.Scheme, c.Opt.OpenLoop.Arrival.PerSec, err))
		}
		results[i] = harness.CellResult{OpenLoop: r}
		res.counts["sim.events"] += float64(st.events)
		res.counts["dev.requests"] += float64(st.DiskRequests)
		res.counts["dev.ordering_stalls"] += float64(st.OrderingStalls)
		res.counts["cache.hits"] += float64(st.CacheHits)
		res.counts["cache.misses"] += float64(st.CacheMisses)
		res.counts["cache.sync_writes"] += float64(st.SyncWrites)
		res.counts["cache.delayed_writes"] += float64(st.DelayedWrites)
		res.counts["scenario.issued"] += float64(r.Issued)
		res.counts["scenario.completed"] += float64(r.Completed)
		res.counts["scenario.dropped"] += float64(r.Dropped)
		res.counts["scenario.soft_errs"] += float64(r.SoftErrs)
	}
	tables := harness.LoadCurveExhibit.Build(w.cfg, inOrder(results))
	var buf bytes.Buffer
	for _, t := range tables {
		t.Fprint(&buf)
	}
	res.out = buf.Bytes()
	if w.golden != nil && !bytes.Equal(res.out, w.golden) {
		res.problems = append(res.problems, w.compareGolden(tables, bad).Error())
	}
	res.attempted = len(w.cells)
	for _, b := range bad {
		if b {
			res.failed++
		}
	}
	return res
}

// cellStats are a cell's simulated work counts.
type cellStats struct {
	fsim.Stats
	events uint64
}

// runCell simulates one open-loop cell on a fresh system, as the harness
// does, with a panic reported as an error.
func runCell(tr *tracer, parent int, opt fsim.Options) (r scenario.Result, st cellStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panicked: %v", p)
		}
	}()
	id := tr.begin("fsim.New", parent)
	sys, err := fsim.New(opt)
	tr.end(id)
	if err != nil {
		return r, st, err
	}
	id = tr.begin("fsim.run", parent)
	r, err = sys.RunOpenLoop()
	tr.end(id)
	st = cellStats{Stats: sys.CollectStats(), events: sys.Eng.Executed()}
	id = tr.begin("fsim.shutdown", parent)
	sys.Shutdown()
	tr.end(id)
	return r, st, err
}

// compareGolden marks each cell whose rows differ from the golden report
// and describes the difference. The report has one table per scheme with
// a row per offered load, in cell order, then a summary with a row per
// scheme and a column per load.
func (w *openMail) compareGolden(tables []harness.Table, bad []bool) error {
	golden := parseTables(w.golden)
	if len(tables) < 2 || len(golden) != len(tables) {
		for i := range bad {
			bad[i] = true
		}
		return fmt.Errorf("open-mail: report has %d tables, load-0.05.txt has %d", len(tables), len(golden))
	}
	rates := len(tables[0].Rows)
	summary := len(tables) - 1
	if rates == 0 || summary*rates != len(bad) {
		for i := range bad {
			bad[i] = true
		}
		return fmt.Errorf("open-mail: %d cells do not fill %d tables of %d rows", len(bad), summary, rates)
	}
	diff := 0
	for i := range bad {
		s, r := i/rates, i%rates
		row := at(tables[s].Rows, r)
		sum := at(tables[summary].Rows, s)
		grow := at(golden[s], r)
		gsum := at(golden[summary], s)
		// Scheme names hold spaces, so summary columns count from the end.
		if !equalFields(row, grow) || len(sum) < rates || len(gsum) < rates ||
			sum[len(sum)-rates+r] != gsum[len(gsum)-rates+r] {
			bad[i] = true
			diff++
		}
	}
	if diff == 0 {
		return fmt.Errorf("open-mail: report differs from load-0.05.txt outside the cell rows")
	}
	return fmt.Errorf("open-mail: report differs from load-0.05.txt in the rows of %d cells", diff)
}

func (w *openMail) teardown(*tracer, int) { w.cells = nil }

func (w *openMail) verify([]byte) []string { return nil }

// layers reports the fsim calls' host times and the host cost of a
// simulated event.
func (w *openMail) layers(sums, m map[string]float64) {
	m["harness.cell_s.openloop"] = sums["cell/openloop"]
	m["fsim.new_s"] = sums["fsim.New"]
	m["fsim.run_s"] = sums["fsim.run"]
	m["fsim.shutdown_s"] = sums["fsim.shutdown"]
	if ev := m["sim.events"]; ev > 0 {
		m["sim.ns_per_event"] = 1e9 * sums["cell/openloop"] / ev
	}
}

// parseTables splits a printed report back into tables of rows of
// fields. Each table prints as a blank line, its title, an optional note,
// the column header and a dashed rule, then its rows.
func parseTables(text []byte) [][][]string {
	var tables [][][]string
	for _, block := range strings.Split(string(text), "\n\n") {
		lines := strings.Split(strings.Trim(block, "\n"), "\n")
		rule := -1
		for i, l := range lines {
			if t := strings.TrimSpace(l); t != "" && strings.Trim(t, "- ") == "" {
				rule = i
				break
			}
		}
		if rule < 0 {
			continue
		}
		var rows [][]string
		for _, l := range lines[rule+1:] {
			rows = append(rows, strings.Fields(l))
		}
		tables = append(tables, rows)
	}
	return tables
}

func at(rows [][]string, i int) []string {
	if i < len(rows) {
		return rows[i]
	}
	return nil
}

func equalFields(a, b []string) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
