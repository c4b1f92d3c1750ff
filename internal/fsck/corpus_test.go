package fsck_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
	"metaupdate/internal/sim"
)

// corpusGolden pins everything fsck reads out of the format corpus: Check
// findings, ContentViolations, the repaired image's digest, sorted action
// list and remaining findings, and digests of the Tree and WalkTree
// listings.
const corpusGolden = "testdata/format_corpus.txt"

// TestFormatCorpus replays the crash rig at several instants for every
// scheme, applies seeded mutations to each crash image's inode table,
// indirect blocks and directory chunks, and requires fsck's reading of
// every image to match the committed golden transcript byte for byte.
// After an intended change in what fsck reads, write
// renderFormatCorpus(t, false) to corpusGolden from a throwaway test, and
// diff renderFormatCorpus(t, true) before and after to explain each image
// that changed.
func TestFormatCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replays the crash rig 15 times")
	}
	want, err := os.ReadFile(corpusGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := renderFormatCorpus(t, false)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("corpus transcript differs from %s at line %d:\n got: %s\nwant: %s", corpusGolden, i+1, g, w)
		}
	}
}

// renderFormatCorpus builds the corpus and renders fsck's view of every
// image, in full or as per-section digests.
func renderFormatCorpus(t testing.TB, full bool) []byte {
	var out bytes.Buffer
	var mut, fixed []byte
	for _, scheme := range []string{"noorder", "conventional", "flag", "chains", "softupdates"} {
		total := totalRuntime(t, scheme, false)
		for _, pct := range []int{40, 80, 100} {
			base := crashAt(t, scheme, false, total*sim.Time(pct)/100)
			if mut == nil {
				mut = make([]byte, len(base))
				fixed = make([]byte, len(base))
			}
			sb := superblockOf(t, base)
			for m := 0; m <= len(corpusMutations); m++ {
				copy(mut, base)
				label := "base"
				if m > 0 {
					rng := uint64(pct*1000 + m)
					for _, c := range scheme {
						rng = rng*31 + uint64(c)
					}
					label = corpusMutations[m-1](mut, &sb, &rng)
				}
				fmt.Fprintf(&out, "== %s@%d%% %s\n", scheme, pct, label)
				copy(fixed, mut)
				renderImage(&out, mut, fixed, full)
			}
		}
	}
	return out.Bytes()
}

// renderImage appends fsck's reading of img; fixed must hold a copy of img
// that Repair may overwrite. Each section renders as one summary line — a
// count and a digest of its lines — or, when full is set, in full.
func renderImage(out *bytes.Buffer, img, fixed []byte, full bool) {
	section := func(name string, f func(emit func(format string, args ...any)) string) {
		var lines []string
		emit := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
		summary := func() (s string) {
			defer func() {
				if p := recover(); p != nil {
					s = fmt.Sprintf("panic: %v", p)
				}
			}()
			return f(emit)
		}()
		if full {
			fmt.Fprintf(out, "%s: %s\n", name, summary)
			for _, l := range lines {
				fmt.Fprintf(out, "  %s\n", l)
			}
			return
		}
		h := sha256.New()
		for _, l := range lines {
			fmt.Fprintln(h, l)
		}
		fmt.Fprintf(out, "%s: %s, %d lines %x\n", name, summary, len(lines), h.Sum(nil)[:8])
	}
	section("check", func(emit func(string, ...any)) string {
		rep := fsck.Check(img)
		for _, f := range rep.Findings {
			emit("%v", f)
		}
		return fmt.Sprintf("%d inodes, %d frags%s", rep.AllocatedInodes, rep.ReferencedFrags, kindCounts(rep.Findings))
	})
	section("content", func(emit func(string, ...any)) string {
		cv := fsck.ContentViolations(img)
		for _, f := range cv {
			emit("%v", f)
		}
		return kindCounts(cv)
	})
	section("repair", func(emit func(string, ...any)) string {
		actions := fsck.Repair(fixed)
		sort.Strings(actions)
		for _, a := range actions {
			emit("%s", a)
		}
		return fmt.Sprintf("image %x, then%s", sha256.Sum256(fixed), kindCounts(fsck.Check(fixed).Findings))
	})
	section("tree", func(emit func(string, ...any)) string {
		tree, err := fsck.Tree(fsck.Bytes(img))
		if err != nil {
			return fmt.Sprintf("error %v", err)
		}
		for _, p := range fsck.TreePaths(tree) {
			emit("%s %+v", p, tree[p])
		}
		return "ok"
	})
	section("walk", func(emit func(string, ...any)) string {
		fsck.WalkTree(fsck.Bytes(img), func(e fsck.WalkEntry) bool {
			emit("%+v", e)
			return true
		})
		return "ok"
	})
}

// kindCounts renders how many findings of each kind fs holds.
func kindCounts(fs []fsck.Finding) string {
	n := map[fsck.Kind]int{}
	var kinds []fsck.Kind
	for _, f := range fs {
		if n[f.Kind] == 0 {
			kinds = append(kinds, f.Kind)
		}
		n[f.Kind]++
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, " %v=%d", k, n[k])
	}
	return b.String()
}

// corpusMutation damages img in place, drawing choices from rng, and
// returns a label naming what it changed.
type corpusMutation func(img []byte, sb *ffs.Superblock, rng *uint64) string

// corpusMutations, one per kind: a random byte of an inode's fields, an
// inode size, a direct pointer, a single-indirect slot, a grafted indirect
// or double-indirect block, a directory-entry header field, and random
// bytes in a directory chunk.
var corpusMutations = []corpusMutation{
	func(img []byte, sb *ffs.Superblock, rng *uint64) string {
		ino, _ := pickInode(img, sb, rng, func(ip *ffs.Inode) bool { return true })
		off := int(splitmix(rng) % 72)
		v := byte(splitmix(rng))
		inodeBytes(img, sb, ino)[off] = v
		return fmt.Sprintf("inode %d byte %d = %#x", ino, off, v)
	},
	func(img []byte, sb *ffs.Superblock, rng *uint64) string {
		ino, ip := pickInode(img, sb, rng, func(ip *ffs.Inode) bool { return ip.Size > 0 })
		ip.Size = splitmix(rng) % (2*ip.Size + 2*ffs.BlockSize)
		putInode(img, sb, ino, &ip)
		return fmt.Sprintf("inode %d size = %d", ino, ip.Size)
	},
	func(img []byte, sb *ffs.Superblock, rng *uint64) string {
		ino, ip := pickInode(img, sb, rng, func(ip *ffs.Inode) bool { return ip.Direct[0] != 0 })
		k := int(splitmix(rng) % uint64(min(ffs.BlocksOf(ip.Size), ffs.NDirect)))
		ip.Direct[k] = pickPtr(img, sb, rng)
		putInode(img, sb, ino, &ip)
		return fmt.Sprintf("inode %d direct %d = %d", ino, k, ip.Direct[k])
	},
	func(img []byte, sb *ffs.Superblock, rng *uint64) string {
		ino, ip := pickInode(img, sb, rng, func(ip *ffs.Inode) bool {
			return ip.Indir != 0 && ffs.BlocksOf(ip.Size) > ffs.NDirect
		})
		if ino == 0 {
			return "no indirect file"
		}
		k := int(splitmix(rng) % uint64(ffs.BlocksOf(ip.Size)-ffs.NDirect))
		v := pickPtr(img, sb, rng)
		binary.LittleEndian.PutUint32(img[int64(ip.Indir)*ffs.FragSize+int64(4*k):], uint32(v))
		return fmt.Sprintf("inode %d indirect slot %d = %d", ino, k, v)
	},
	func(img []byte, sb *ffs.Superblock, rng *uint64) string {
		ino, ip := pickInode(img, sb, rng, func(ip *ffs.Inode) bool { return ip.Mode == ffs.ModeFile })
		ip.Indir = pickPtr(img, sb, rng)
		ip.Size = (ffs.NDirect + 5) * ffs.BlockSize
		putInode(img, sb, ino, &ip)
		return fmt.Sprintf("inode %d indirect = %d, size %d", ino, ip.Indir, ip.Size)
	},
	func(img []byte, sb *ffs.Superblock, rng *uint64) string {
		ino, ip := pickInode(img, sb, rng, func(ip *ffs.Inode) bool { return ip.Mode == ffs.ModeFile })
		ip.Dindir = pickPtr(img, sb, rng)
		ip.Size = (ffs.NDirect+ffs.PtrsPerBlock+3)*ffs.BlockSize + 700
		putInode(img, sb, ino, &ip)
		return fmt.Sprintf("inode %d dindirect = %d, size %d", ino, ip.Dindir, ip.Size)
	},
	func(img []byte, sb *ffs.Superblock, rng *uint64) string {
		ino, chunk := pickDirChunk(img, sb, rng)
		if chunk == nil {
			return "no directory chunk"
		}
		off := 0
		for hops := splitmix(rng) % 4; hops > 0; hops-- {
			reclen := int(binary.LittleEndian.Uint16(chunk[off+4:]))
			if reclen < 8 || off+reclen+8 > ffs.DirChunk || reclen%4 != 0 {
				break
			}
			off += reclen
		}
		switch field := splitmix(rng) % 4; field {
		case 0:
			v := uint32(splitmix(rng) % uint64(sb.NInodes+8))
			binary.LittleEndian.PutUint32(chunk[off:], v)
			return fmt.Sprintf("dir %d entry at %d ino = %d", ino, off, v)
		case 1, 2:
			v := uint16(splitmix(rng) % 600)
			binary.LittleEndian.PutUint16(chunk[off+4:], v)
			return fmt.Sprintf("dir %d entry at %d reclen = %d", ino, off, v)
		default:
			v := byte(splitmix(rng))
			chunk[off+6] = v
			return fmt.Sprintf("dir %d entry at %d namelen = %d", ino, off, v)
		}
	},
	func(img []byte, sb *ffs.Superblock, rng *uint64) string {
		ino, chunk := pickDirChunk(img, sb, rng)
		if chunk == nil {
			return "no directory chunk"
		}
		off := int(splitmix(rng) % (ffs.DirChunk - 4))
		v := uint32(splitmix(rng))
		binary.LittleEndian.PutUint32(chunk[off:], v)
		return fmt.Sprintf("dir %d chunk byte %d = %#x", ino, off, v)
	},
}

func inodeBytes(img []byte, sb *ffs.Superblock, ino ffs.Ino) []byte {
	frag, off := sb.InodeFrag(ino)
	return img[int64(frag)*ffs.FragSize+int64(off):][:ffs.InodeSize]
}

func putInode(img []byte, sb *ffs.Superblock, ino ffs.Ino, ip *ffs.Inode) {
	ffs.EncodeInode(ip, inodeBytes(img, sb, ino))
}

// pickInode returns a random allocated inode satisfying ok (0 if none).
func pickInode(img []byte, sb *ffs.Superblock, rng *uint64, ok func(ip *ffs.Inode) bool) (ffs.Ino, ffs.Inode) {
	var inos []ffs.Ino
	for ino := ffs.RootIno; uint32(ino) < sb.NInodes; ino++ {
		if ip := ffs.DecodeInode(inodeBytes(img, sb, ino)); ip.Allocated() && ok(&ip) {
			inos = append(inos, ino)
		}
	}
	if len(inos) == 0 {
		return 0, ffs.Inode{}
	}
	ino := inos[splitmix(rng)%uint64(len(inos))]
	return ino, ffs.DecodeInode(inodeBytes(img, sb, ino))
}

// pickPtr draws a damaging fragment pointer: a hole, the last fragment of
// the media, a pointer past it, another inode's first block, or anything.
func pickPtr(img []byte, sb *ffs.Superblock, rng *uint64) int32 {
	switch splitmix(rng) % 5 {
	case 0:
		return 0
	case 1:
		return sb.TotalFrags - 1
	case 2:
		return sb.TotalFrags + 3
	case 3:
		_, ip := pickInode(img, sb, rng, func(ip *ffs.Inode) bool { return ip.Direct[0] != 0 })
		return ip.Direct[0]
	}
	return int32(splitmix(rng) % uint64(sb.TotalFrags))
}

// pickDirChunk returns a random chunk of a random directory's data.
func pickDirChunk(img []byte, sb *ffs.Superblock, rng *uint64) (ffs.Ino, []byte) {
	ino, ip := pickInode(img, sb, rng, func(ip *ffs.Inode) bool {
		return ip.IsDir() && ip.Size >= ffs.DirChunk && ip.Direct[0] >= sb.DataStart
	})
	if ino == 0 {
		return 0, nil
	}
	n := ip.Size / ffs.DirChunk
	if n > ffs.BlockSize/ffs.DirChunk {
		n = ffs.BlockSize / ffs.DirChunk
	}
	c := int64(splitmix(rng) % n)
	return ino, img[int64(ip.Direct[0])*ffs.FragSize+c*ffs.DirChunk:][:ffs.DirChunk]
}
