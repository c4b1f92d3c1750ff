package harness

import (
	"fmt"
	"reflect"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/arrival"
	"metaupdate/internal/disk"
	"metaupdate/internal/fault"
	"metaupdate/internal/ffs"
	"metaupdate/internal/sim"
)

// mean must tolerate an empty sample set: RunUsers with zero users (or a
// future workload that records no per-user times) hands it an empty slice,
// and a divide-by-zero panic here would take down a whole exhibit.
func TestMeanEmptySlice(t *testing.T) {
	if got := mean(nil); got != 0 {
		t.Fatalf("mean(nil) = %v, want 0", got)
	}
	if got := mean([]sim.Duration{}); got != 0 {
		t.Fatalf("mean(empty) = %v, want 0", got)
	}
	if got := mean([]sim.Duration{2 * sim.Second, 4 * sim.Second}); got != 3*sim.Second {
		t.Fatalf("mean(2s,4s) = %v, want 3s", got)
	}
}

// Memo keys must separate every cell parameter that changes simulation
// results (a collision would silently serve one configuration's numbers
// as another's), and must not separate equal disks reached through
// different pointers.
func TestFingerprintsDistinct(t *testing.T) {
	cells := []Cell{
		{Kind: CellCopy, Users: 4, Scale: 0.1},
		{Kind: CellCopy, Users: 4, Scale: 0.1, Remove: true},
		{Kind: CellCopy, Users: 1, Scale: 0.1},
		{Kind: CellCopy, Users: 4, Scale: 0.2},
		{Kind: CellFig5, Users: 4, TotalFiles: 100},
		{Kind: CellFig5, Users: 4, TotalFiles: 100, Fig5: Fig5Removes},
		{Kind: CellSdet, Users: 4, Commands: 10},
		{Kind: CellAndrew},
	}
	seen := make(map[memoKey]int)
	for i, c := range cells {
		k := keyOf(c)
		if j, dup := seen[k]; dup {
			t.Fatalf("cells %d and %d share key %+v", i, j, k)
		}
		seen[k] = i
	}
	if keyOf(Cell{Kind: CellCopy, Users: 4, Scale: 0.1}) != keyOf(Cell{Kind: CellCopy, Users: 4, Scale: 0.1}) {
		t.Fatal("equal cells produced different keys")
	}

	withDisk := func(p *disk.Params) Cell {
		return Cell{Kind: CellAndrew, Opt: fsim.Options{DiskParams: p}}
	}
	p1, p2 := disk.HPC2447(), disk.HPC2447()
	if keyOf(withDisk(&p1)) != keyOf(withDisk(&p2)) {
		t.Error("equal DiskParams behind distinct pointers produced different keys")
	}
	if keyOf(withDisk(nil)) != keyOf(withDisk(&p1)) {
		t.Error("nil DiskParams and &disk.HPC2447() produced different keys")
	}
	p2.RPM = 7200
	if keyOf(withDisk(&p1)) == keyOf(withDisk(&p2)) {
		t.Error("different DiskParams share a key")
	}
}

// TestFingerprintCoversEveryField walks every leaf field of Cell — the
// fsim.Options inside it, down through DiskParams and nested specs, and
// the DistSpec — changes each one in turn and requires the memo key to
// change with it. The walk is by reflection, so it covers a field added
// later without being told about it. It also fails on any pointer, slice,
// map, func, interface or chan field other than the normalised
// Opt.DiskParams: such a field would be keyed by its address, or not be
// comparable at all. Faults and OpenLoop start enabled, with every
// defaulted parameter set.
func TestFingerprintCoversEveryField(t *testing.T) {
	dp := disk.HPC2447()
	c := Cell{
		Kind: CellCopy,
		Opt: fsim.Options{
			Scheme:     fsim.SchedulerFlag,
			DiskParams: &dp,
			Costs:      ffs.DefaultCosts(),
			Faults: fault.Spec{Seed: 1, TransientPer10k: 10, TornPer10k: 10,
				LatencyPer10k: 10, LatencySpikeMS: 20, BadSectors: 2},
			OpenLoop: fsim.OpenLoopSpec{Scenario: "mail", Ops: 100, Warmup: 10, MaxInFlight: 8,
				Arrival: fsim.ArrivalSpec{Kind: arrival.Bursty, Seed: 1, PerSec: 100, BPer1000: 600, Levels: 4}},
		},
		Users: 2, Scale: 0.5, Fig5: Fig5Creates, TotalFiles: 100, Commands: 10, CrashAt: sim.Second,
		Dist: DistSpec{Nodes: 2, Clients: 4, Ops: 50, SplitEntries: 64, SplitQueue: 8, Seed: 1, EngineWorkers: 2},
	}
	base := keyOf(c)
	fields := 0
	var visit func(path string, v reflect.Value)
	visit = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				visit(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				visit(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
			return
		case reflect.Pointer:
			if path != "Cell.Opt.DiskParams" {
				t.Errorf("%s: a pointer field would be keyed by its address", path)
				return
			}
			visit(path, v.Elem())
			return
		case reflect.Slice, reflect.Map, reflect.Func, reflect.Interface, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s: a %v field cannot be keyed by value", path, v.Kind())
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		// XOR 1 keeps every enum in range (Bursty<->Poisson, and so on)
		// and every enabled count enabled.
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() ^ 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() ^ 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "2")
		default:
			t.Fatalf("%s: no way to vary a %v field", path, v.Kind())
		}
		if keyOf(c) == base {
			t.Errorf("%s: changing it leaves the key unchanged", path)
		}
		v.Set(old)
		fields++
	}
	visit("Cell", reflect.ValueOf(&c).Elem())
	if keyOf(c) != base {
		t.Fatal("restoring every field did not restore the key")
	}
	t.Logf("%d fields vary the key", fields)
}

// TestCellsStableAcrossPasses guards the Build contract: declaring cells
// (recording pass) and assembling tables must request the same cells in
// the same order for every exhibit.
func TestCellsStableAcrossPasses(t *testing.T) {
	cfg := Config{Scale: 0.02}
	for _, ex := range Exhibits {
		a := ex.Cells(cfg)
		b := ex.Cells(cfg)
		if len(a) == 0 {
			t.Errorf("%s declares no cells", ex.Name)
			continue
		}
		if len(a) != len(b) {
			t.Errorf("%s: cell count varies between passes: %d vs %d", ex.Name, len(a), len(b))
			continue
		}
		for i := range a {
			if keyOf(a[i]) != keyOf(b[i]) {
				t.Errorf("%s: cell %d differs between passes", ex.Name, i)
			}
		}
	}
}

// TestMemoPartition pins how the memo groups the cells that every mdsim
// exhibit mode declares at scale 0.05: the 13 -exp all exhibits, -faults,
// -opstats, -dist, -load and -scenario mail at 100/s on 2 nodes. A key
// that merged two configurations, or split one, changes the count of
// distinct keys.
func TestMemoPartition(t *testing.T) {
	cfg := Config{Scale: 0.05}
	modes := append(append([]*Exhibit{}, Exhibits...),
		FaultRecoveryExhibit, OpStatsExhibit, DistExhibit, LoadCurveExhibit, ScenarioExhibit("mail", 100, 2))
	requested := 0
	keys := make(map[memoKey]bool)
	for _, ex := range modes {
		for _, c := range ex.Cells(cfg) {
			requested++
			keys[keyOf(c)] = true
		}
	}
	if requested != 288 || len(keys) != 275 {
		t.Fatalf("%d cells requested in %d distinct keys, want 288 in 275", requested, len(keys))
	}
}
