package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The benchmark decodes the few fields it needs itself (the module has no
// dependencies) and buckets every sample twice: by the layer of its
// innermost metaupdate frame, and by the kind of work in its leaf frame.

// sample is one decoded stack, leaf frame first, with its sample count.
type sample struct {
	stack []string
	count int64
}

// Field numbers from profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// parseProfile decodes a gzipped pprof profile into stacks of function
// names. The count is the sample's first value (CPU samples).
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcNames = map[uint64]uint64{}   // function -> string index
		strs      []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			vals := 0
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return repeated(v, b, func(x uint64) {
						if vals == 0 {
							s.count = int64(x)
						}
						vals++
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				stack = append(stack, strs[idx])
			}
		}
		out = append(out, sample{stack: stack, count: s.count})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated message")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var data []byte
		switch typ {
		case 0: // varint
			v, n = uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2: // length-delimited
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", typ)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated yields a repeated varint field, which runtime/pprof writes
// packed (data non-nil) or one value per field.
func repeated(v uint64, data []byte, yield func(uint64)) error {
	if data == nil {
		yield(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			return errTruncated
		}
		yield(x)
		data = data[n:]
	}
	return nil
}

// uvarint decodes a varint; n is 0 on malformed input.
func uvarint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// modulePrefix starts the name of every function in the simulator's module.
const modulePrefix = "metaupdate/"

// packageLayer maps each library package of the module (path relative to
// the module root) to the layer its CPU time is reported under. A package
// missing here fails the bucketer test, so a new package cannot silently
// fall into a neighbour's share.
var packageLayer = map[string]string{
	"internal/sim":      "sim",
	"internal/disk":     "disk",
	"internal/fault":    "disk", // fault plans are queried on the media path
	"internal/dev":      "dev",
	"internal/cache":    "cache",
	"internal/ffs":      "ffs",
	"internal/ordering": "ordering",
	"internal/core":     "core",
	"internal/jlog":     "jlog",
	"internal/nvram":    "nvram",
	"internal/workload": "workload",
	"internal/scenario": "scenario",
	"internal/arrival":  "arrival",
	"internal/harness":  "harness",
	"internal/plot":     "harness", // exhibit chart rendering
	"fsim":              "fsim",
	"internal/fsck":     "fsck",
	"internal/crashmc":  "crashmc",
	"internal/trace":    "trace",
	"internal/obs":      "trace", // operation-span recorder
	"internal/simnet":   "cluster",
	"internal/dmeta":    "cluster",
}

// runtimeLayer takes the samples with no metaupdate frame: the Go runtime,
// the standard library, and the benchmark's own code.
const runtimeLayer = "runtime"

// cpuLayers lists the layer partition in report order.
var cpuLayers = []string{
	"sim", "disk", "dev", "cache", "ffs", "ordering", "core", "jlog", "nvram",
	"workload", "scenario", "arrival", "harness", "fsim", "fsck", "crashmc",
	"trace", "cluster", runtimeLayer,
}

// leafKinds lists the leaf-frame partition in report order.
var leafKinds = []string{"code", "alloc", "gc", "sched"}

// funcPackage returns the import path of a pprof function name such as
// "metaupdate/internal/dev.(*Driver).computeBarrier" or a generic
// instantiation "pkg.F[go.shape.*other/pkg.T]".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameLayer returns the layer of a metaupdate frame; ok is false for
// frames outside the module. known is false for a module package missing
// from packageLayer.
func frameLayer(fn string) (layer string, ok, known bool) {
	pkg := funcPackage(fn)
	if !strings.HasPrefix(pkg, modulePrefix) {
		return "", false, false
	}
	layer, known = packageLayer[strings.TrimPrefix(pkg, modulePrefix)]
	return layer, true, known
}

// sampleLayer attributes a stack to the layer of its innermost metaupdate
// frame. Frames of a package missing from packageLayer are skipped (their
// caller's layer takes the sample) and returned in unknown.
func sampleLayer(stack []string, unknown map[string]bool) string {
	for _, fn := range stack {
		layer, ok, known := frameLayer(fn)
		if !ok {
			continue
		}
		if !known {
			unknown[funcPackage(fn)] = true
			continue
		}
		return layer
	}
	return runtimeLayer
}

// gcRoots are the entry points of the collector's own goroutines and of
// mutator assists; a sample under one is GC work whatever its leaf.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime._GC",
}

// Leaf-frame prefixes per kind; anything else is the program's own code.
var (
	gcLeaves = []string{
		"runtime.gc", "runtime.scan", "runtime.markroot", "runtime.greyobject",
		"runtime.findObject", "runtime.heapBits", "runtime.(*gcWork)",
		"runtime.(*gcBits)", "runtime.(*mspan).sweep", "runtime.sweepone",
		"runtime.(*sweepLocked)", "runtime.wbBuf", "runtime.(*wbBuf)",
		"runtime.bulkBarrier", "runtime.typePointers", "runtime.(*typePointers)",
		"runtime.spanOf", "runtime.pageIndexOf", "runtime.(*mspan).markBits",
		"runtime.(*mspan).heapBits", "runtime.(*mspan).typePointers",
	}
	allocLeaves = []string{
		"runtime.mallocgc", "runtime.memclrNoHeapPointers", "runtime.newobject",
		"runtime.makeslice", "runtime.growslice", "runtime.newarray",
		"runtime.nextFreeFast", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*mheap)", "runtime.(*pageAlloc)", "runtime.(*pageCache)",
		"runtime.(*fixalloc)", "runtime.(*mspan).init", "runtime.(*mspan).nextFreeIndex",
		"runtime.heapSetType", "runtime.sysAlloc", "runtime.sysUsed", "runtime.sysUnused",
		"runtime.sysHugePage", "runtime.madvise", "runtime.mmap", "runtime.rawstring",
		"runtime.rawbyteslice", "runtime.(*scavengerState)",
	}
	schedLeaves = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.runq", "runtime.globrunq",
		"runtime.chansend", "runtime.chanrecv", "runtime.closechan", "runtime.send",
		"runtime.recv", "runtime.selectgo", "runtime.lock", "runtime.unlock",
		"runtime.futex", "runtime.casgstatus", "runtime.mcall", "runtime.gogo",
		"runtime.gosched", "runtime.goschedImpl", "runtime.usleep", "runtime.notesleep",
		"runtime.notewakeup", "runtime.stealWork", "runtime.checkTimers",
		"runtime.netpoll", "runtime.procyield", "runtime.osyield", "runtime.execute",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.resetspinning",
		"runtime.acquireSudog", "runtime.releaseSudog", "runtime.(*waitq)",
		"runtime.semacquire", "runtime.semrelease", "runtime.newproc", "runtime.goexit",
		"runtime.gfget", "runtime.gfput", "runtime.malg", "runtime.mPark",
		"runtime.(*timer)", "runtime.(*timers)", "runtime._System",
		"sync.(*Mutex)", "sync.(*WaitGroup)", "sync.runtime_",
	}
)

// leafKind classifies a stack by its leaf frame: GC work (or anything
// under a GC worker or assist), allocation and zeroing, goroutine
// scheduling and synchronization, or the program's own code.
func leafKind(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcRoots) {
			return "gc"
		}
	}
	if len(stack) == 0 {
		return "code"
	}
	switch leaf := stack[0]; {
	case hasAnyPrefix(leaf, gcLeaves):
		return "gc"
	case hasAnyPrefix(leaf, allocLeaves):
		return "alloc"
	case hasAnyPrefix(leaf, schedLeaves):
		return "sched"
	}
	return "code"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuShares is a profile bucketed into the two partitions, as sample
// counts.
type cpuShares struct {
	layer   map[string]int64
	leaf    map[string]int64
	total   int64
	unknown map[string]bool // module packages missing from packageLayer
}

func newCPUShares() *cpuShares {
	return &cpuShares{layer: map[string]int64{}, leaf: map[string]int64{}, unknown: map[string]bool{}}
}

// add buckets samples into both partitions.
func (c *cpuShares) add(samples []sample) {
	for _, s := range samples {
		c.layer[sampleLayer(s.stack, c.unknown)] += s.count
		c.leaf[leafKind(s.stack)] += s.count
		c.total += s.count
	}
}

// metrics reports each partition as shares of the samples (cpu.<layer>
// and leaf.<kind>); each partition sums to 1.
func (c *cpuShares) metrics(m map[string]float64) error {
	if c.total == 0 {
		return errors.New("profile: no CPU samples")
	}
	for _, l := range cpuLayers {
		m["cpu."+l] = float64(c.layer[l]) / float64(c.total)
	}
	for _, k := range leafKinds {
		m["leaf."+k] = float64(c.leaf[k]) / float64(c.total)
	}
	return nil
}

// unknownPackages lists module packages the profile hit that have no layer.
func (c *cpuShares) unknownPackages() []string {
	var out []string
	for p := range c.unknown {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
