package dev

import (
	"testing"

	"metaupdate/internal/disk"
)

// TestAllocFreeDriverCycle: a steady-state submit → dispatch → complete
// cycle with pooled requests allocates nothing — under ModeIgnore, and
// under Flag Part-NR, where a flagged write puts the next write behind a
// drain watermark and a read bypasses it.
func TestAllocFreeDriverCycle(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: ModeIgnore},
		{Mode: ModeFlag, Sem: SemPart, NR: true},
	} {
		eng, _, drv := newRig(cfg)
		data := make([]byte, 16*disk.SectorSize)
		buf := make([]byte, 8*disk.SectorSize)
		var reqs [3]*Request
		cycle := func() {
			for i := range reqs {
				r := drv.AllocRequest()
				r.Op, r.LBN, r.Count, r.Data, r.Flag = disk.Write, int64(32*i), 16, data, i == 0
				if i == 2 {
					r.Op, r.Count, r.Data, r.Buf = disk.Read, 8, nil, buf
				}
				reqs[i] = drv.Submit(r)
			}
			eng.Run()
			for _, r := range reqs {
				drv.Release(r)
			}
			drv.Trace.Stats = drv.Trace.Stats[:0]
		}
		cycle() // warm-up: grow the pool, indexes, event heap and media pages
		stalls := drv.OrderingStalls
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Fatalf("%+v: driver cycle allocates %.1f objects, want 0", cfg, n)
		}
		if cfg.Mode == ModeFlag && drv.OrderingStalls == stalls {
			t.Fatalf("%+v: cycle never waited on a flagged write", cfg)
		}
	}
}
