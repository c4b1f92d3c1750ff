package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"metaupdate/internal/harness"
)

// benchScale is the workload scale of closed-exhibits and open-mail; the
// repository's golden transcripts are pinned at this scale.
const benchScale = 0.05

// exhibitNames are the exhibits whose host time is reported per layer, in
// the order of `mdsim -exp all`. An exhibit added to the harness later is
// still run and checked, just not reported on its own.
var exhibitNames = []string{
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "table2", "table3",
	"chains-ablation", "cb-ablation", "nvram", "cache-sweep",
}

// cellKinds are the cell kinds whose host time in Runner.Get is reported.
var cellKinds = []string{"copy", "fig5", "sdet", "andrew", "openloop"}

// cellKindName names a harness cell kind for its span.
func cellKindName(k harness.CellKind) string {
	switch k {
	case harness.CellCopy:
		return "copy"
	case harness.CellFig5:
		return "fig5"
	case harness.CellSdet:
		return "sdet"
	case harness.CellAndrew:
		return "andrew"
	case harness.CellOpenLoop:
		return "openloop"
	}
	return fmt.Sprintf("kind%d", k)
}

// closedExhibits runs every exhibit of `mdsim -exp all`, in order, on one
// cold runner worker and checks the transcript against the golden file.
// Its input is fixed by the golden: the seed changes nothing.
type closedExhibits struct {
	golden []byte

	// Per repetition, from setup.
	cfg   harness.Config
	cells [][]harness.Cell
}

func newClosedExhibits(root string) (*closedExhibits, error) {
	golden, err := os.ReadFile(filepath.Join(root, "internal/harness/testdata/golden-0.05.txt"))
	if err != nil {
		return nil, err
	}
	return &closedExhibits{golden: golden}, nil
}

// setup makes a cold runner and declares every exhibit's cells.
func (w *closedExhibits) setup(*tracer, int) error {
	w.cfg = harness.DefaultConfig(io.Discard)
	w.cfg.Scale = benchScale
	w.cfg.Runner = harness.NewRunner(1)
	w.cells = make([][]harness.Cell, len(harness.Exhibits))
	for i, ex := range harness.Exhibits {
		w.cells[i] = ex.Cells(w.cfg)
	}
	return nil
}

// run resolves each exhibit's cells through Runner.Get, then assembles
// and prints its tables. A cell fails when its exhibit's text differs from
// the golden. A panicking cell fails the whole repetition, since the
// runner cannot go on after it.
func (w *closedExhibits) run(tr *tracer, root int) *repResult {
	res := &repResult{counts: map[string]float64{}}
	outs := make([][]byte, len(harness.Exhibits))
	for i, ex := range harness.Exhibits {
		eid := tr.begin("exhibit/"+ex.Name, root)
		results := make([]harness.CellResult, len(w.cells[i]))
		for j, c := range w.cells[i] {
			cid := tr.begin("cell/"+cellKindName(c.Kind), eid)
			r, err := safeGet(w.cfg.Runner, c)
			tr.end(cid)
			if err != nil {
				tr.end(eid)
				for _, cells := range w.cells {
					res.attempted += len(cells)
				}
				res.failed = res.attempted
				res.problems = append(res.problems, fmt.Sprintf("%s: %v", ex.Name, err))
				return res
			}
			results[j] = r
		}
		tables := ex.Build(w.cfg, inOrder(results))
		var buf bytes.Buffer
		for _, t := range tables {
			t.Fprint(&buf)
		}
		outs[i] = buf.Bytes()
		tr.end(eid)
	}
	res.out = bytes.Join(outs, nil)
	st := w.cfg.Runner.Stats()
	res.counts["harness.cells"] = float64(st.Executed)
	res.counts["harness.memo_hits"] = float64(st.Hits)
	for i, ok := range segmentsMatch(outs, w.golden) {
		res.attempted += len(w.cells[i])
		if !ok {
			res.failed += len(w.cells[i])
			res.problems = append(res.problems, fmt.Sprintf("%s: transcript differs from golden-0.05.txt", harness.Exhibits[i].Name))
		}
	}
	if res.failed == 0 && !bytes.Equal(res.out, w.golden) {
		res.problems = append(res.problems, "transcript differs from golden-0.05.txt outside the exhibits")
	}
	return res
}

// teardown drops the runner, and with it the memo of cell results.
func (w *closedExhibits) teardown(*tracer, int) { w.cfg, w.cells = harness.Config{}, nil }

func (w *closedExhibits) verify([]byte) []string { return nil }

// layers reports the harness layer's host times.
func (w *closedExhibits) layers(sums, m map[string]float64) {
	for _, name := range exhibitNames {
		m["harness.exhibit_s."+name] = sums["exhibit/"+name]
	}
	for _, k := range cellKinds {
		m["harness.cell_s."+k] = sums["cell/"+k]
	}
}

// inOrder serves an exhibit's Build the results of the cells it declared:
// Build requests the same cells in the same order every time it runs.
func inOrder(results []harness.CellResult) func(harness.Cell) harness.CellResult {
	next := 0
	return func(harness.Cell) harness.CellResult {
		var r harness.CellResult
		if next < len(results) {
			r = results[next]
		}
		next++
		return r
	}
}

// safeGet is Runner.Get with a panicking cell reported as an error.
func safeGet(r *harness.Runner, c harness.Cell) (res harness.CellResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cell panicked: %v", p)
		}
	}()
	return r.Get(c), nil
}

// segmentsMatch compares the concatenation of segs with want and reports,
// per segment, whether it matches: the segments overlapping the span
// between the texts' common prefix and common suffix fail, so one changed
// segment fails alone. Where the texts differ only by bytes missing from
// segs, the segments on either side of the gap fail.
func segmentsMatch(segs [][]byte, want []byte) []bool {
	got := bytes.Join(segs, nil)
	ok := make([]bool, len(segs))
	for i := range ok {
		ok[i] = true
	}
	if bytes.Equal(got, want) {
		return ok
	}
	n := min(len(got), len(want))
	pre := 0
	for pre < n && got[pre] == want[pre] {
		pre++
	}
	suf := 0
	for suf < n-pre && got[len(got)-1-suf] == want[len(want)-1-suf] {
		suf++
	}
	lo, hi := pre, len(got)-suf
	if lo == hi {
		lo, hi = max(lo-1, 0), min(hi+1, len(got))
	}
	start := 0
	for i, s := range segs {
		end := start + len(s)
		ok[i] = !(start < hi && lo < end)
		start = end
	}
	return ok
}
