package fsim_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"metaupdate/fsim"
)

func TestNewAllSchemes(t *testing.T) {
	for _, s := range fsim.Schemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			sys, err := fsim.New(fsim.Options{Scheme: s, DiskBytes: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if sys.FS == nil || sys.Driver == nil || sys.Cache == nil {
				t.Fatal("incomplete system")
			}
			if s == fsim.SoftUpdates && sys.Soft == nil {
				t.Fatal("Soft handle missing")
			}
			elapsed := sys.Run(func(p *fsim.Proc) {
				ino, err := sys.FS.Create(p, fsim.RootIno, "x")
				if err != nil {
					t.Error(err)
					return
				}
				if err := sys.FS.WriteAt(p, ino, 0, []byte("hello")); err != nil {
					t.Error(err)
				}
				sys.FS.Sync(p)
			})
			if elapsed <= 0 {
				t.Fatal("no virtual time elapsed")
			}
		})
	}
}

func TestDefaultsFollowPaperConfiguration(t *testing.T) {
	sys, err := fsim.New(fsim.Options{Scheme: fsim.SchedulerFlag, DiskBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Opt.NR || !sys.Opt.CB || sys.Opt.Sem != fsim.SemPart {
		t.Errorf("flag defaults = %+v, want Part-NR/CB", sys.Opt)
	}
	if sys.Opt.AllocInit {
		t.Error("flag scheme should not default to allocation initialization")
	}
	su, err := fsim.New(fsim.Options{Scheme: fsim.SoftUpdates, DiskBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !su.Opt.AllocInit {
		t.Error("soft updates should default to allocation initialization")
	}
}

func TestRunUsersElapsed(t *testing.T) {
	sys, err := fsim.New(fsim.Options{Scheme: fsim.NoOrder, DiskBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	each, wall := sys.RunUsers(3, func(p *fsim.Proc, u int) {
		dir, err := sys.FS.Mkdir(p, fsim.RootIno, fmt.Sprintf("u%d", u))
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 5; i++ {
			if _, err := sys.FS.Create(p, dir, fmt.Sprintf("f%d", i)); err != nil {
				t.Error(err)
			}
		}
	})
	if len(each) != 3 {
		t.Fatalf("%d user times", len(each))
	}
	for u, d := range each {
		if d <= 0 || d > wall {
			t.Errorf("user %d elapsed %v (wall %v)", u, d, wall)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() fsim.Duration {
		sys, err := fsim.New(fsim.Options{Scheme: fsim.SoftUpdates, DiskBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(func(p *fsim.Proc) {
			dir, _ := sys.FS.Mkdir(p, fsim.RootIno, "d")
			for i := 0; i < 40; i++ {
				ino, _ := sys.FS.Create(p, dir, fmt.Sprintf("f%d", i))
				sys.FS.WriteAt(p, ino, 0, make([]byte, 3000))
			}
			for i := 0; i < 40; i += 2 {
				sys.FS.Unlink(p, dir, fmt.Sprintf("f%d", i))
			}
			sys.FS.Sync(p)
		})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("simulation not deterministic: %v vs %v", a, b)
	}
}

func TestResetAndCollectStats(t *testing.T) {
	sys, err := fsim.New(fsim.Options{Scheme: fsim.Conventional, DiskBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(func(p *fsim.Proc) {
		sys.FS.Create(p, fsim.RootIno, "warmup")
		sys.FS.Sync(p)
	})
	sys.ResetStats()
	st := sys.CollectStats()
	if st.DiskRequests != 0 || st.CPUTime != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
	sys.Run(func(p *fsim.Proc) {
		ino, _ := sys.FS.Create(p, fsim.RootIno, "x")
		sys.FS.WriteAt(p, ino, 0, make([]byte, 2048))
		sys.FS.Sync(p)
	})
	st = sys.CollectStats()
	if st.DiskRequests == 0 || st.CPUTime == 0 || st.Elapsed == 0 {
		t.Fatalf("stats empty after work: %+v", st)
	}
	if st.AvgServiceMS <= 0 || st.AvgResponseMS < st.AvgServiceMS {
		t.Errorf("timing stats inconsistent: %+v", st)
	}
}

func TestCrashReturnsImage(t *testing.T) {
	sys, err := fsim.New(fsim.Options{Scheme: fsim.SoftUpdates, DiskBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sys.Eng.Spawn("w", func(p *fsim.Proc) {
		for i := 0; ; i++ {
			if _, err := sys.FS.Create(p, fsim.RootIno, fmt.Sprintf("f%d", i)); err != nil {
				return
			}
		}
	})
	img := sys.Crash(3 * fsim.Second)
	if len(img) == 0 {
		t.Fatal("no image")
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[fsim.Scheme]string{
		fsim.NoOrder:         "No Order",
		fsim.Conventional:    "Conventional",
		fsim.SchedulerFlag:   "Scheduler Flag",
		fsim.SchedulerChains: "Scheduler Chains",
		fsim.SoftUpdates:     "Soft Updates",
		fsim.NVRAM:           "NVRAM",
		fsim.Journaling:      "Journaling",
		fsim.AsyncDurability: "Async Durability",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if len(fsim.Schemes) != 7 {
		t.Errorf("Schemes has %d entries", len(fsim.Schemes))
	}
}

// TestParseScheme round-trips every command-line name, aliases included,
// through ParseScheme, and requires every scheme to have a name.
func TestParseScheme(t *testing.T) {
	names := []struct {
		name string
		want fsim.Scheme
	}{
		{"conventional", fsim.Conventional},
		{"flag", fsim.SchedulerFlag},
		{"chains", fsim.SchedulerChains},
		{"softupdates", fsim.SoftUpdates},
		{"soft", fsim.SoftUpdates},
		{"noorder", fsim.NoOrder},
		{"nvram", fsim.NVRAM},
		{"journaling", fsim.Journaling},
		{"journal", fsim.Journaling},
		{"async", fsim.AsyncDurability},
		{"asyncdurability", fsim.AsyncDurability},
	}
	named := map[fsim.Scheme]bool{}
	for _, n := range names {
		for _, in := range []string{n.name, strings.ToUpper(n.name), " " + n.name + "\t"} {
			got, err := fsim.ParseScheme(in)
			if err != nil || got != n.want {
				t.Errorf("ParseScheme(%q) = %v, %v; want %v", in, got, err, n.want)
			}
		}
		named[n.want] = true
	}
	for _, s := range append([]fsim.Scheme{fsim.NVRAM}, fsim.Schemes...) {
		if !named[s] {
			t.Errorf("%v has no command-line name", s)
		}
	}
	_, err := fsim.ParseScheme("ordered")
	if err == nil || !strings.Contains(err.Error(), "conventional|flag|chains|softupdates|noorder|nvram|journaling|async") {
		t.Errorf("ParseScheme(unknown) error = %v, want one listing the valid names", err)
	}
}

func TestShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		sys, err := fsim.New(fsim.Options{Scheme: fsim.SoftUpdates, DiskBytes: 32 << 20})
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(func(p *fsim.Proc) {
			ino, _ := sys.FS.Create(p, fsim.RootIno, "f")
			sys.FS.WriteAt(p, ino, 0, make([]byte, 4096))
			sys.FS.Sync(p)
		})
		sys.Shutdown()
		if sys.Eng.Live() != 0 {
			t.Fatalf("%d live processes after Shutdown", sys.Eng.Live())
		}
	}
	runtime.GC()
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
}
