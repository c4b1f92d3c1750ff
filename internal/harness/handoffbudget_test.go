package harness

import (
	"testing"

	"metaupdate/fsim"
)

// handoffHeadroom is the slack of TestHandoffBudgetPerCell's ceilings over
// the measured handoff count of each cell.
const handoffHeadroom = 1.10

// TestHandoffBudgetPerCell gates the goroutine switches two representative
// cells cost the event engine: one open-loop mail cell (Soft Updates at
// 400 arrivals/s) and the 4-user Table 1 copy under Scheduler Flag
// Part-NR/CB, both at scale 0.05. A switch is a baton handoff
// (sim.Engine.Handoffs): a process woken by its own dispatch loop costs
// none, a wake of another process costs one. The count is a deterministic
// function of the cell, so the ceiling is the measured count plus
// handoffHeadroom; a return to a protocol that switches goroutines twice
// per wake-up would more than double it.
func TestHandoffBudgetPerCell(t *testing.T) {
	const scale = Scale(0.05)
	for _, c := range []struct {
		name     string
		sys      func() *fsim.System
		handoffs float64 // measured sim.Engine.Handoffs()
	}{
		{"openloop-mail", func() *fsim.System {
			ops, warm := loadOps(scale)
			sys := mustSystem(openLoopOpt(fsim.SoftUpdates, "mail", 400, ops, warm))
			if _, err := sys.RunOpenLoop(); err != nil {
				t.Fatal(err)
			}
			return sys
		}, 4061},
		{"table1-copy", func() *fsim.System {
			sys := mustSystem(schemeVariant(fsim.SchedulerFlag, false).opt)
			prepTrees(sys, 4, scale)
			runCopy(sys, 4)
			return sys
		}, 694},
	} {
		sys := c.sys()
		got, events := sys.Eng.Handoffs(), sys.Eng.Executed()
		sys.Shutdown()
		if float64(got) > c.handoffs*handoffHeadroom {
			t.Errorf("%s: %d goroutine handoffs in %d events, budget %.0f",
				c.name, got, events, c.handoffs*handoffHeadroom)
		}
	}
}
