package sim

import (
	"runtime"
	"strings"
	"testing"
)

// TestBatonSelfWakeNoHandoff: a lone sleeper pops its own wake-up every
// time, so its sleeps switch no goroutine. The only handoffs of the run
// are host → sleeper at its start and sleeper → host at its exit.
func TestBatonSelfWakeNoHandoff(t *testing.T) {
	e := NewEngine()
	var inside uint64
	e.Spawn("sleeper", func(p *Proc) {
		before := e.Handoffs()
		for i := 0; i < 1000; i++ {
			p.Sleep(Microsecond)
		}
		inside = e.Handoffs() - before
	})
	e.Run()
	if inside != 0 {
		t.Errorf("1000 self-wakes made %d handoffs, want 0", inside)
	}
	if got := e.Handoffs(); got != 2 {
		t.Errorf("run made %d handoffs, want 2 (start and exit)", got)
	}
}

// TestBatonOneHandoffPerWake: in a two-process mutex ping-pong every wake
// of the other process costs exactly one handoff, and a process that pops
// its own wake-up costs none. The test records which process holds the
// baton after every resumption; the handoff count must be exactly the
// number of holder changes plus the host's two (first start, last exit).
func TestBatonOneHandoffPerWake(t *testing.T) {
	e := NewEngine()
	var mu Mutex
	var holders []int
	for w := 0; w < 2; w++ {
		e.Spawn("worker", func(p *Proc) {
			holders = append(holders, p.ID)
			for i := 0; i < 100; i++ {
				mu.Lock(p)
				holders = append(holders, p.ID)
				p.Sleep(1)
				holders = append(holders, p.ID)
				mu.Unlock(e)
			}
		})
	}
	e.Run()
	changes := uint64(0)
	for i := 1; i < len(holders); i++ {
		if holders[i] != holders[i-1] {
			changes++
		}
	}
	if changes < 100 {
		t.Fatalf("ping-pong changed holder only %d times", changes)
	}
	if got, want := e.Handoffs(), changes+2; got != want {
		t.Errorf("%d handoffs for %d wakes of the other process, want %d", got, changes, want)
	}
}

// TestAllocFreeSelfWake: a run of self-wakes — a sleeper that pops its own
// wake-up each time — allocates nothing and switches goroutines only to
// take the baton from the host and give it back.
func TestAllocFreeSelfWake(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	advance := func() { e.RunUntil(e.Now() + 100) }
	advance() // warm-up: start event, first sleep
	h := e.Handoffs()
	if n := testing.AllocsPerRun(100, advance); n != 0 {
		t.Fatalf("100 self-wakes allocate %.1f objects, want 0", n)
	}
	if got := e.Handoffs() - h; got != 2*101 {
		t.Errorf("101 runs of self-wakes made %d handoffs, want %d", got, 2*101)
	}
}

// TestAllocFreeHandoff: a mutex ping-pong hands the baton between two
// processes on every wake; steady state allocates nothing.
func TestAllocFreeHandoff(t *testing.T) {
	e := NewEngine()
	var mu Mutex
	for w := 0; w < 2; w++ {
		e.Spawn("worker", func(p *Proc) {
			for {
				mu.Lock(p)
				p.Sleep(1)
				mu.Unlock(e)
			}
		})
	}
	advance := func() { e.RunUntil(e.Now() + 10) }
	advance() // warm-up: start events, waiter list growth
	if n := testing.AllocsPerRun(100, advance); n != 0 {
		t.Fatalf("mutex handoff cycle allocates %.1f objects, want 0", n)
	}
}

// TestAllocFreeProcExit: a process that finishes dispatches until it can
// hand the baton back, then its goroutine ends; none of that allocates.
// The processes are spawned up front, each parked on its own completion,
// so the measured cycle is only wake, exit and handoff.
func TestAllocFreeProcExit(t *testing.T) {
	const runs = 100
	e := NewEngine()
	comps := make([]*Completion, runs+2)
	for i := range comps {
		c := NewCompletion()
		comps[i] = c
		e.Spawn("exiter", func(p *Proc) { c.Wait(p) })
	}
	e.Run()
	next := 0
	cycle := func() {
		comps[next].Fire(e)
		next++
		e.Run()
	}
	cycle() // warm-up
	live := e.Live()
	if n := testing.AllocsPerRun(runs, cycle); n != 0 {
		t.Fatalf("process wake and exit allocates %.1f objects, want 0", n)
	}
	if got := live - e.Live(); got != runs+1 {
		t.Errorf("%d processes exited, want %d", got, runs+1)
	}
}

// runPanics runs fn and returns what it panicked with.
func runPanics(t *testing.T, fn func()) (r any) {
	t.Helper()
	defer func() { r = recover() }()
	fn()
	t.Fatal("no panic")
	return nil
}

// TestEngineContextPanicOnProcessGoroutine: an At callback that fires a
// completion twice is dispatched by a sleeping process's loop. Its panic
// reaches the caller of Run with its raw value, and the process that held
// the baton is not unwound (its deferred calls do not run).
func TestEngineContextPanicOnProcessGoroutine(t *testing.T) {
	e := NewEngine()
	c := NewCompletion()
	unwound := false
	var during uint64
	e.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound = true }()
		during = e.Handoffs()
		p.Sleep(10)
	})
	e.At(5, func() {
		c.Fire(e)
		c.Fire(e)
	})
	r := runPanics(t, e.Run)
	if r != "sim: Completion fired twice" {
		t.Fatalf("panic value %#v, want the raw callback panic", r)
	}
	if during != 1 {
		t.Fatalf("sleeper held the baton after %d handoffs, want 1", during)
	}
	if unwound {
		t.Error("engine-context panic unwound the process that dispatched it")
	}
}

// TestEngineContextPanicOnHost: the same panic dispatched by the host's
// own loop unwinds straight through Run, and the engine accepts a new run
// afterwards.
func TestEngineContextPanicOnHost(t *testing.T) {
	e := NewEngine()
	e.At(5, func() { panic(42) })
	if r := runPanics(t, e.Run); r != 42 {
		t.Fatalf("panic value %#v, want 42", r)
	}
	ran := false
	e.At(6, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("engine did not run after a recovered panic")
	}
}

// TestProcPanicNamesProcess: a process body's panic reaches the caller of
// Run naming the process and its ID.
func TestProcPanicNamesProcess(t *testing.T) {
	e := NewEngine()
	e.Spawn("quiet", func(p *Proc) { p.Sleep(20) })
	e.Spawn("op", func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	})
	msg, _ := runPanics(t, e.Run).(string)
	if !strings.HasPrefix(msg, `sim: process "op" (id 2) panicked: boom`) {
		t.Fatalf("panic message %q", msg)
	}
}

// TestNestedRunPanics: Run called from inside a running simulation — from
// a process, from a callback on the host, or from a callback a process
// dispatches — panics with an explanation instead of deadlocking.
func TestNestedRunPanics(t *testing.T) {
	const want = "sim: Run, RunUntil or RunWhile called from inside a running simulation"
	t.Run("process", func(t *testing.T) {
		e := NewEngine()
		e.Spawn("runner", func(p *Proc) { e.Run() })
		msg, _ := runPanics(t, e.Run).(string)
		if !strings.Contains(msg, `process "runner"`) || !strings.Contains(msg, want) {
			t.Fatalf("panic message %q", msg)
		}
	})
	t.Run("host-callback", func(t *testing.T) {
		e := NewEngine()
		e.At(1, func() { e.RunUntil(2) })
		if r, _ := runPanics(t, e.Run).(string); !strings.HasPrefix(r, want) {
			t.Fatalf("panic value %q", r)
		}
	})
	t.Run("process-callback", func(t *testing.T) {
		e := NewEngine()
		e.Spawn("sleeper", func(p *Proc) { p.Sleep(10) })
		e.At(5, func() { e.RunWhile(func() bool { return true }) })
		if r, _ := runPanics(t, e.Run).(string); !strings.HasPrefix(r, want) {
			t.Fatalf("panic value %q", r)
		}
	})
}

// TestGoexitInCallbackEndsHost: runtime.Goexit in a callback a process
// dispatches (t.FailNow, say) ends the goroutine that called Run, as it
// would had the host dispatched the callback itself.
func TestGoexitInCallbackEndsHost(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(10) })
	e.At(5, runtime.Goexit)
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a Goexit in engine context")
	}
}
