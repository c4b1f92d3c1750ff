package sim_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metaupdate/internal/sim"
)

var updateDispatchCorpus = flag.Bool("update-dispatch-corpus", false, "rewrite testdata/dispatch_corpus.txt from the current output")

// TestDispatchCorpus pins the engine's dispatch order on seeded random
// programs. Each program mixes host and nested Spawns, Sleep, Mutex,
// multi-quantum CPU.Use, Completion Wait/Fire/OnFire, WaitGroup joins and
// At callbacks that wake processes, and drives them through a RunWhile
// that a process stops, a RunUntil that halts mid-run and a resumed Run.
// The LPGroup programs add cross-LP deliveries and run at 1 and at 4
// workers. Every dispatched event leaves one line — (Executed, now, kind,
// proc ID or callback tag) — and every run ends with Executed, Live and
// Halted, so any change to the order in which the engine fires events, or
// to what it counts, changes the transcript.
func TestDispatchCorpus(t *testing.T) {
	var out strings.Builder
	for seed := uint64(1); seed <= 12; seed++ {
		fmt.Fprintf(&out, "# serial seed %d\n", seed)
		out.WriteString(serialProgram(seed))
	}
	for seed := uint64(1); seed <= 3; seed++ {
		var logs [2]string
		for i, workers := range []int{1, 4} {
			logs[i] = lpProgram(t, seed, workers)
		}
		if logs[0] != logs[1] {
			t.Errorf("LP seed %d: transcript at 4 workers differs from 1 worker", seed)
		}
		fmt.Fprintf(&out, "# lpgroup seed %d\n", seed)
		out.WriteString(logs[0])
	}
	got := out.String()
	path := filepath.Join("testdata", "dispatch_corpus.txt")
	if *updateDispatchCorpus {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("dispatch order diverges at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("dispatch transcript has %d lines, want %d", len(gl), len(wl))
	}
}

// corpusRNG is a splitmix64 stream: stable across Go releases, unlike
// anything math/rand promises about its helpers.
type corpusRNG uint64

func (r *corpusRNG) intn(n int) int {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(n))
}

// dispatchLog records one engine's dispatched events.
type dispatchLog struct {
	e *sim.Engine
	b *strings.Builder
}

func (l dispatchLog) event(kind string, id any) {
	fmt.Fprintf(l.b, "%d %d %s %v\n", l.e.Executed(), l.e.Now(), kind, id)
}

// blocking runs op for p and logs p's resumption if op blocked: a
// process that blocked was resumed by its own dispatched wake-up, which
// is the last event the engine counted.
func (l dispatchLog) blocking(p *sim.Proc, op func()) {
	before := l.e.Executed()
	op()
	if l.e.Executed() != before {
		l.event("proc", p.ID)
	}
}

func (l dispatchLog) summary(what string) {
	fmt.Fprintf(l.b, "= %s executed=%d live=%d halted=%v now=%d\n",
		what, l.e.Executed(), l.e.Live(), l.e.Halted(), l.e.Now())
}

// corpusWorld is the shared state of one serial program.
type corpusWorld struct {
	e     *sim.Engine
	log   dispatchLog
	mus   [2]sim.Mutex
	cpu   sim.CPU
	comps []*sim.Completion
	tags  int
}

// callback schedules an At callback d from now that logs itself and fires
// a completion, waking whoever waits on it.
func (w *corpusWorld) callback(d sim.Duration, c *sim.Completion) {
	w.tags++
	tag := fmt.Sprintf("cb%d", w.tags)
	w.e.At(w.e.Now()+d, func() {
		w.log.event("cb", tag)
		if !c.Fired() {
			c.Fire(w.e)
		}
	})
}

// body returns a process body that runs ops random primitives drawn from
// its own stream, so each process's script is fixed by the seed alone.
func (w *corpusWorld) body(seed uint64, ops, depth int) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		r := corpusRNG(seed)
		l := w.log
		l.event("start", p.ID)
		var wg sim.WaitGroup
		for i := 0; i < ops; i++ {
			switch r.intn(9) {
			case 0:
				d := sim.Duration(r.intn(4)) * sim.Microsecond
				l.blocking(p, func() { p.Sleep(d) })
			case 1:
				m := &w.mus[r.intn(2)]
				d := sim.Duration(r.intn(3)) * sim.Microsecond
				l.blocking(p, func() { m.Lock(p) })
				l.blocking(p, func() { p.Sleep(d) })
				m.Unlock(w.e)
			case 2:
				d := sim.Duration(r.intn(3*int(w.cpu.Quantum)) + 1)
				l.blocking(p, func() { w.cpu.Use(p, d) })
			case 3:
				c := w.comps[r.intn(len(w.comps))]
				l.blocking(p, func() { c.Wait(p) })
			case 4:
				if c := w.comps[r.intn(len(w.comps))]; !c.Fired() {
					c.Fire(w.e)
				}
			case 5:
				w.tags++
				tag := fmt.Sprintf("onfire%d", w.tags)
				w.comps[r.intn(len(w.comps))].OnFire(func() { l.event("onfire", tag) })
			case 6:
				if depth < 2 {
					wg.Add(1)
					child := w.body(seed*31+uint64(i), 2+r.intn(4), depth+1)
					w.e.Spawn("child", func(p *sim.Proc) {
						child(p)
						wg.Done(w.e)
					})
				}
			case 7:
				l.blocking(p, func() { wg.Wait(p) })
			case 8:
				w.callback(sim.Duration(r.intn(5))*sim.Microsecond, w.comps[r.intn(len(w.comps))])
			}
		}
		l.blocking(p, func() { wg.Wait(p) })
		l.event("end", p.ID)
	}
}

// serialProgram runs one seeded program on a serial engine and returns its
// transcript.
func serialProgram(seed uint64) string {
	var b strings.Builder
	e := sim.NewEngine()
	w := &corpusWorld{e: e, log: dispatchLog{e: e, b: &b}}
	w.cpu.Quantum = 2 * sim.Microsecond
	r := corpusRNG(seed)
	for i := 0; i < 6; i++ {
		w.comps = append(w.comps, sim.NewCompletion())
	}
	for i, n := 0, 4+r.intn(5); i < n; i++ {
		e.Spawn("p", w.body(seed<<8|uint64(i), 6+r.intn(10), 0))
	}
	for i := 0; i < 3; i++ {
		w.callback(sim.Duration(r.intn(20))*sim.Microsecond, w.comps[r.intn(len(w.comps))])
	}
	stop := false
	flipAt := sim.Duration(r.intn(15)) * sim.Microsecond
	e.Spawn("flipper", func(p *sim.Proc) {
		w.log.event("start", p.ID)
		p.Sleep(flipAt)
		w.log.event("proc", p.ID)
		stop = true
	})
	e.RunWhile(func() bool { return !stop })
	w.log.summary("runwhile")
	// A process spawned between runs, then a run that halts mid-flight.
	e.Spawn("late", w.body(seed<<8|0xff, 6, 0))
	e.RunUntil(e.Now() + sim.Duration(r.intn(10))*sim.Microsecond)
	w.log.summary("rununtil")
	e.Run()
	w.log.summary("run")
	return b.String()
}

// corpusMsg is one cross-LP delivery: it logs itself on its destination
// LP and wakes that LP's mailbox server.
type corpusMsg struct {
	lp  *corpusLP
	tag string
}

func (m *corpusMsg) Deliver() {
	m.lp.log.event("del", m.tag)
	m.lp.box++
	if !m.lp.mail.Fired() {
		m.lp.mail.Fire(m.lp.log.e)
	}
}

// corpusLP is one logical process of an LPGroup program.
type corpusLP struct {
	log  dispatchLog
	b    strings.Builder
	mail *sim.Completion
	box  int
	sent uint64
}

// lpProgram runs one seeded four-LP program: every LP hosts a mailbox
// server and clients that sleep and send to random LPs; LP 0 also hosts
// the process that stops RunWhile.
func lpProgram(t *testing.T, seed uint64, workers int) string {
	const n = 4
	const lookahead = 5 * sim.Microsecond
	engines := make([]*sim.Engine, n)
	lps := make([]*corpusLP, n)
	for i := range engines {
		engines[i] = sim.NewEngine()
		lps[i] = &corpusLP{mail: sim.NewCompletion()}
		lps[i].log = dispatchLog{e: engines[i], b: &lps[i].b}
	}
	g, err := sim.NewLPGroup(engines, lookahead, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	r := corpusRNG(seed)
	for i := range engines {
		src, lp := i, lps[i]
		engines[i].Spawn("server", func(p *sim.Proc) {
			lp.log.event("start", p.ID)
			for {
				lp.log.blocking(p, func() { lp.mail.Wait(p) })
				lp.mail.Reset()
				k := lp.box
				lp.box = 0
				lp.log.blocking(p, func() { p.Sleep(sim.Duration(k) * sim.Microsecond) })
			}
		})
		for c, clients := 0, 1+r.intn(3); c < clients; c++ {
			cr := corpusRNG(seed<<16 | uint64(i)<<8 | uint64(c))
			ops := 3 + r.intn(6)
			engines[i].Spawn("client", func(p *sim.Proc) {
				lp.log.event("start", p.ID)
				for k := 0; k < ops; k++ {
					d := sim.Duration(cr.intn(4)) * sim.Microsecond
					lp.log.blocking(p, func() { p.Sleep(d) })
					if cr.intn(3) == 0 {
						continue
					}
					dst := cr.intn(n)
					lp.sent++
					at := p.Now() + lookahead + sim.Duration(cr.intn(3))*sim.Microsecond
					msg := &corpusMsg{lp: lps[dst], tag: fmt.Sprintf("m%d.%d", src, lp.sent)}
					g.Outbox(src).Send(dst, at, uint64(src+1)<<32|lp.sent, msg)
				}
				lp.log.event("end", p.ID)
			})
		}
	}
	stop := false
	flipAt := sim.Duration(5+r.intn(15)) * sim.Microsecond
	g.Spawn("flipper", func(p *sim.Proc) {
		lps[0].log.event("start", p.ID)
		p.Sleep(flipAt)
		lps[0].log.event("proc", p.ID)
		stop = true
	})
	summary := func(what string) {
		for _, lp := range lps {
			lp.log.summary(what)
		}
	}
	g.RunWhile(func() bool { return !stop })
	summary("runwhile")
	g.RunUntil(g.NowMax() + sim.Duration(r.intn(10))*sim.Microsecond)
	summary("rununtil")
	g.Run()
	summary("run")
	var b strings.Builder
	for i, lp := range lps {
		fmt.Fprintf(&b, "## lp %d\n%s", i, lp.b.String())
	}
	return b.String()
}
