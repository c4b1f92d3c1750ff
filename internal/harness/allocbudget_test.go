package harness

import (
	"runtime"
	"testing"

	"metaupdate/fsim"
)

// allocHeadroom is the slack of TestAllocBudgetPerCell's ceilings over the
// measured allocation of each cell.
const allocHeadroom = 1.15

// TestAllocBudgetPerCell gates the host allocation cost of two
// representative cells under Scheduler Flag Part-NR/CB at scale 0.05: the
// 4-user Table 1 copy and the 4-user Figure 5 removes. A cell's
// allocations are a deterministic function of its configuration (repeat
// runs agree to a few mallocs), so unlike wall time they can be gated
// tightly: the ceilings are the values measured on Go 1.24 with 16 KiB
// media pages and the indexed driver, plus allocHeadroom. Materializing
// media at 1 MiB granularity, for one, cost the copy cell 223 MiB.
func TestAllocBudgetPerCell(t *testing.T) {
	opt := schemeVariant(fsim.SchedulerFlag, false).opt
	const scale = Scale(0.05)
	for _, c := range []struct {
		name    string
		run     func()
		mib     float64 // measured TotalAlloc delta, MiB
		mallocs float64 // measured Mallocs delta
	}{
		{"table1-copy", func() { copyBench(opt, 4, scale, false) }, 26.57, 21067},
		{"fig5-removes", func() { Fig5Point(opt, Fig5Removes, 4, scale.files(10000)) }, 8.40, 17243},
	} {
		c.run() // warm-up: one-time package initialization stays out of the budget
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.run()
		runtime.ReadMemStats(&after)
		mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		mallocs := float64(after.Mallocs - before.Mallocs)
		if mib > c.mib*allocHeadroom || mallocs > c.mallocs*allocHeadroom {
			t.Errorf("%s: %.2f MiB in %.0f allocations, budget %.2f MiB in %.0f",
				c.name, mib, mallocs, c.mib*allocHeadroom, c.mallocs*allocHeadroom)
		}
	}
}
