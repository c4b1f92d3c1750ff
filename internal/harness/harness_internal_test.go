package harness

import (
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

// Fingerprints must separate every cell parameter that changes simulation
// results; a collision would silently serve one configuration's numbers as
// another's.
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
	seen := make(map[string]int)
	for i, c := range cells {
		fp := c.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Fatalf("cells %d and %d share fingerprint %q", i, j, fp)
		}
		seen[fp] = i
	}
	a := Cell{Kind: CellCopy, Users: 4, Scale: 0.1}
	if a.Fingerprint() != (Cell{Kind: CellCopy, Users: 4, Scale: 0.1}).Fingerprint() {
		t.Fatal("equal cells produced different fingerprints")
	}
}

// TestFingerprintCoversEveryField walks every leaf field of Cell — the
// fsim.Options inside it, down through pointers and nested specs, and the
// DistSpec — changes each one in turn and requires the fingerprint to
// change with it. The walk is by reflection, so a field added later and
// left out of Fingerprint fails here. Faults and OpenLoop start enabled,
// with every defaulted parameter set, because their disabled forms
// rightly ignore their parameters.
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
	base := c.Fingerprint()
	fields := 0
	var visit func(path string, v reflect.Value)
	visit = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				visit(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		case reflect.Pointer:
			visit(path, v.Elem())
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
		if c.Fingerprint() == base {
			t.Errorf("%s: changing it leaves the fingerprint unchanged", path)
		}
		v.Set(old)
		fields++
	}
	visit("Cell", reflect.ValueOf(&c).Elem())
	if c.Fingerprint() != base {
		t.Fatal("restoring every field did not restore the fingerprint")
	}
	t.Logf("%d fields vary the fingerprint", fields)
}
