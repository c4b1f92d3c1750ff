package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// libraryPackages lists the module's non-main packages, relative to the
// module root, by walking the source tree above the benchmark.
func libraryPackages(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != ".." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		if f.Name.Name != "main" {
			rel, err := filepath.Rel("..", filepath.Dir(path))
			if err != nil {
				return err
			}
			seen[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for p := range seen {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	if len(pkgs) < 10 {
		t.Fatalf("found only %d library packages above the benchmark: %v", len(pkgs), pkgs)
	}
	return pkgs
}

// TestEveryPackageHasLayer pins the layer table to the source tree: a new
// package must be given a layer, and a removed one must leave the table.
func TestEveryPackageHasLayer(t *testing.T) {
	layers := map[string]bool{}
	for _, l := range cpuLayers {
		layers[l] = true
	}
	pkgs := libraryPackages(t)
	for _, p := range pkgs {
		layer, ok := packageLayer[p]
		if !ok {
			t.Errorf("package %s has no layer in packageLayer", p)
			continue
		}
		if !layers[layer] {
			t.Errorf("package %s maps to %q, which is not in cpuLayers", p, layer)
		}
	}
	for p := range packageLayer {
		i := sort.SearchStrings(pkgs, p)
		if i == len(pkgs) || pkgs[i] != p {
			t.Errorf("packageLayer lists %s, which is not a package of the module", p)
		}
	}
}

// protoWriter encodes the profile.proto fields the decoder reads.
type protoWriter struct{ b []byte }

func (w *protoWriter) varint(x uint64) {
	for x >= 0x80 {
		w.b = append(w.b, byte(x)|0x80)
		x >>= 7
	}
	w.b = append(w.b, byte(x))
}

func (w *protoWriter) uint(num int, x uint64) {
	w.varint(uint64(num) << 3)
	w.varint(x)
}

func (w *protoWriter) bytes(num int, b []byte) {
	w.varint(uint64(num)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

// encodeProfile writes a gzipped profile with one function per name, one
// location per function, and one sample per stack. Stacks of up to two
// frames use unpacked location IDs, as runtime/pprof writes them; longer
// ones are packed.
func encodeProfile(t *testing.T, stacks [][]string, counts []int64) []byte {
	t.Helper()
	var p protoWriter
	strs := []string{""}
	ids := map[string]uint64{}
	for _, st := range stacks {
		for _, fn := range st {
			if ids[fn] == 0 {
				ids[fn] = uint64(len(ids) + 1)
				strs = append(strs, fn)
				var fw, lw, line protoWriter
				fw.uint(functionID, ids[fn])
				fw.uint(functionName, uint64(len(strs)-1))
				p.bytes(profFunction, fw.b)
				line.uint(lineFunction, ids[fn])
				lw.uint(locationID, ids[fn])
				lw.bytes(locationLine, line.b)
				p.bytes(profLocation, lw.b)
			}
		}
	}
	for i, st := range stacks {
		var sw protoWriter
		if len(st) <= 2 {
			for _, fn := range st {
				sw.uint(sampleLocation, ids[fn])
			}
		} else {
			var packed protoWriter
			for _, fn := range st {
				packed.varint(ids[fn])
			}
			sw.bytes(sampleLocation, packed.b)
		}
		var vals protoWriter
		vals.varint(uint64(counts[i]))
		vals.varint(uint64(counts[i]) * 10_000_000)
		sw.bytes(sampleValue, vals.b)
		p.bytes(profSample, sw.b)
	}
	for _, s := range strs {
		p.bytes(profStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

// TestBucketSyntheticProfile decodes a synthetic profile with a sample in
// every package of the module and checks both partitions.
func TestBucketSyntheticProfile(t *testing.T) {
	var stacks [][]string
	var counts []int64
	wantLayer := map[string]int64{}
	for i, p := range libraryPackages(t) {
		stacks = append(stacks, []string{"runtime.memmove", modulePrefix + p + ".(*T).f.func1", "main.main"})
		counts = append(counts, int64(i+1))
		wantLayer[packageLayer[p]] += int64(i + 1)
	}
	extra := []struct {
		stack       []string
		layer, leaf string
	}{
		{[]string{"runtime.mallocgc", "metaupdate/internal/disk.(*Disk).Commit"}, "disk", "alloc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "metaupdate/internal/disk.(*Disk).Commit"}, "disk", "alloc"},
		{[]string{"runtime.chanrecv", "metaupdate/internal/sim.(*Proc).yield"}, "sim", "sched"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, runtimeLayer, "sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, runtimeLayer, "gc"},
		{[]string{"runtime.futex", "runtime.gcBgMarkWorker"}, runtimeLayer, "gc"},
		{[]string{"metaupdate/internal/fsck.walk[go.shape.*metaupdate/internal/ffs.Inode]"}, "fsck", "code"},
		{[]string{"metaupdate/internal/newpkg.f", "metaupdate/internal/dev.(*Driver).Submit"}, "dev", "code"},
		{[]string{"main.main"}, runtimeLayer, "code"},
	}
	wantLeaf := map[string]int64{"code": 0}
	for _, c := range counts {
		wantLeaf["code"] += c
	}
	for _, e := range extra {
		stacks = append(stacks, e.stack)
		counts = append(counts, 7)
		wantLayer[e.layer] += 7
		wantLeaf[e.leaf] += 7
	}

	samples, err := parseProfile(encodeProfile(t, stacks, counts))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if strings.Join(s.stack, ";") != strings.Join(stacks[i], ";") || s.count != counts[i] {
			t.Fatalf("sample %d decoded as %v x%d, want %v x%d", i, s.stack, s.count, stacks[i], counts[i])
		}
	}
	c := newCPUShares()
	c.add(samples)
	for _, l := range cpuLayers {
		if c.layer[l] != wantLayer[l] {
			t.Errorf("layer %s: %d samples, want %d", l, c.layer[l], wantLayer[l])
		}
	}
	for _, k := range leafKinds {
		if c.leaf[k] != wantLeaf[k] {
			t.Errorf("leaf %s: %d samples, want %d", k, c.leaf[k], wantLeaf[k])
		}
	}
	if u := c.unknownPackages(); len(u) != 1 || u[0] != "metaupdate/internal/newpkg" {
		t.Errorf("unknown packages %v, want [metaupdate/internal/newpkg]", u)
	}

	m := map[string]float64{}
	if err := c.metrics(m); err != nil {
		t.Fatal(err)
	}
	for _, part := range []struct {
		prefix string
		names  []string
	}{{"cpu.", cpuLayers}, {"leaf.", leafKinds}} {
		sum := 0.0
		for _, n := range part.names {
			sum += m[part.prefix+n]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s shares sum to %v, want 1", part.prefix, sum)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
	for _, w := range doc.Workloads {
		if _, err := newJob(w.Name, "..", 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

func TestSegmentsMatch(t *testing.T) {
	segs := [][]byte{[]byte("alpha\n"), []byte("beta\n"), []byte("gamma\n")}
	for _, c := range []struct {
		want string
		ok   []bool
	}{
		{"alpha\nbeta\ngamma\n", []bool{true, true, true}},
		{"alpha\nbeTa\ngamma\n", []bool{true, false, true}},
		{"alpha\nbeta\ngamma\ndelta\n", []bool{true, true, false}},
		{"Alpha\nbeta\ngamma\n", []bool{false, true, true}},
	} {
		got := segmentsMatch(segs, []byte(c.want))
		for i := range got {
			if got[i] != c.ok[i] {
				t.Errorf("want %q: segments %v, expected %v", c.want, got, c.ok)
				break
			}
		}
	}
}

func TestParseTables(t *testing.T) {
	text := "\nFirst table\na note\n  scheme        @25  @50\n  ------------  ---  ---\n  Conventional  1.0  2.0\n  No Order      3.0  4.0\n" +
		"\nSecond\n  a  b\n  -  -\n  1  2\n"
	got := parseTables([]byte(text))
	want := [][][]string{
		{{"Conventional", "1.0", "2.0"}, {"No", "Order", "3.0", "4.0"}},
		{{"1", "2"}},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d tables, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		for j := range want[i] {
			if !equalFields(at(got[i], j), want[i][j]) {
				t.Errorf("table %d row %d: %q, want %q", i, j, at(got[i], j), want[i][j])
			}
		}
	}
}
