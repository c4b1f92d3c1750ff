package fsck_test

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"metaupdate/internal/ffs"
	"metaupdate/internal/fsck"
	"metaupdate/internal/sim"
)

// After Repair, a crashed image must pass Check with zero findings — for
// every scheme, safe or not, at any crash point. This is the paper's
// recovery story: fsck assistance restores a usable file system; the
// difference between the schemes is only whether *integrity* (and data)
// survived until fsck ran.
func TestRepairProducesCleanImage(t *testing.T) {
	for _, scheme := range []string{"conventional", "flag", "chains", "softupdates", "noorder"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			total := totalRuntime(t, scheme, true)
			for pct := 10; pct <= 90; pct += 20 {
				at := total * sim.Time(pct) / 100
				img := crashAt(t, scheme, true, at)
				fsck.Repair(img)
				rep := fsck.Check(img)
				if len(rep.Findings) != 0 {
					t.Fatalf("%s at %d%%: repaired image still has findings: %v",
						scheme, pct, rep.Findings[0])
				}
			}
		})
	}
}

func TestRepairReportsActions(t *testing.T) {
	// A crashed No Order image mid-churn needs actual repairs.
	total := totalRuntime(t, "noorder", false)
	img := crashAt(t, "noorder", false, total/2)
	before := fsck.Check(img)
	actions := fsck.Repair(img)
	if len(before.Findings) > 0 && len(actions) == 0 {
		t.Fatalf("fsck found %d problems but Repair did nothing", len(before.Findings))
	}
}

func TestRepairClampsLinkCounts(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	sb := superblockOf(t, img)
	// Inflate some link count.
	var victim ffs.Ino
	for ino := ffs.Ino(3); uint32(ino) < sb.NInodes; ino++ {
		frag, off := sb.InodeFrag(ino)
		ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
		if ip.Mode == ffs.ModeFile {
			victim = ino
			ip.Nlink = 9
			ffs.EncodeInode(&ip, img[int64(frag)*ffs.FragSize+int64(off):])
			break
		}
	}
	if victim == 0 {
		t.Skip("no file inode")
	}
	fsck.Repair(img)
	frag, off := sb.InodeFrag(victim)
	ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
	if ip.Nlink == 9 {
		t.Fatal("link count not clamped")
	}
	if v := fsck.Check(img).Violations(); len(v) != 0 {
		t.Fatalf("still violating after repair: %v", v)
	}
}

func TestRepairClearsDanglingEntries(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	sb := superblockOf(t, img)
	// Clear a referenced inode to manufacture a dangling entry.
	for ino := ffs.Ino(3); uint32(ino) < sb.NInodes; ino++ {
		frag, off := sb.InodeFrag(ino)
		ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
		if ip.Mode == ffs.ModeFile {
			cleared := ffs.Inode{}
			ffs.EncodeInode(&cleared, img[int64(frag)*ffs.FragSize+int64(off):])
			break
		}
	}
	if len(fsck.Check(img).Violations()) == 0 {
		t.Skip("no dangling entry was produced")
	}
	fsck.Repair(img)
	if v := fsck.Check(img).Violations(); len(v) != 0 {
		t.Fatalf("dangling entry survived repair: %v", v)
	}
}

// TestRepairFreesOrphanInodes manufactures an allocated inode no directory
// references — the shape a crash leaves when the inode write beat the
// directory entry to disk and the entry never made it.
func TestRepairFreesOrphanInodes(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	sb := superblockOf(t, img)
	var orphan ffs.Ino
	for ino := ffs.Ino(3); uint32(ino) < sb.NInodes; ino++ {
		frag, off := sb.InodeFrag(ino)
		if ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):]); !ip.Allocated() {
			orphan = ino
			ip = ffs.Inode{Mode: ffs.ModeFile, Nlink: 1}
			ffs.EncodeInode(&ip, img[int64(frag)*ffs.FragSize+int64(off):])
			break
		}
	}
	if orphan == 0 {
		t.Skip("no free inode to orphan")
	}
	actions := fsck.Repair(img)
	frag, off := sb.InodeFrag(orphan)
	if ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):]); ip.Allocated() {
		t.Fatalf("orphan inode %d still allocated after repair", orphan)
	}
	if !strings.Contains(strings.Join(actions, "\n"), "orphan") {
		t.Errorf("repair log doesn't mention the orphan: %v", actions)
	}
	if rep := fsck.Check(img); len(rep.Findings) != 0 {
		t.Fatalf("image not clean after repair: %v", rep.Findings[0])
	}
}

// TestRepairReclaimsLeaks marks a free fragment and a free inode as
// allocated in the bitmaps — leaked space, the benign inconsistency every
// scheme in the paper tolerates — and wants both bits reclaimed by the
// bitmap rebuild.
func TestRepairReclaimsLeaks(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	sb := superblockOf(t, img)
	fbm := img[int64(sb.FBmapStart)*ffs.FragSize:]
	var leakedFrag int32 = -1
	for f := sb.TotalFrags - 1; f >= sb.DataStart; f-- {
		if fbm[f/8]&(1<<(uint(f)%8)) == 0 {
			fbm[f/8] |= 1 << (uint(f) % 8)
			leakedFrag = f
			break
		}
	}
	ibm := img[int64(sb.IBmapStart)*ffs.FragSize:]
	var leakedIno ffs.Ino
	for ino := ffs.Ino(sb.NInodes - 1); ino > ffs.RootIno; ino-- {
		if ibm[ino/8]&(1<<(uint(ino)%8)) == 0 {
			ibm[ino/8] |= 1 << (uint(ino) % 8)
			leakedIno = ino
			break
		}
	}
	if leakedFrag < 0 || leakedIno == 0 {
		t.Skip("nothing free to leak")
	}
	fsck.Repair(img)
	if fbm[leakedFrag/8]&(1<<(uint(leakedFrag)%8)) != 0 {
		t.Errorf("leaked fragment %d not reclaimed", leakedFrag)
	}
	if ibm[leakedIno/8]&(1<<(uint(leakedIno)%8)) != 0 {
		t.Errorf("leaked inode %d not reclaimed", leakedIno)
	}
	if rep := fsck.Check(img); len(rep.Findings) != 0 {
		t.Fatalf("image not clean after repair: %v", rep.Findings[0])
	}
}

// TestRepairReformatsGarbageDirChunk scribbles over a directory's first
// chunk — what a torn multi-sector directory write leaves behind — and
// wants the chunk reformatted with "." and ".." reseeded.
func TestRepairReformatsGarbageDirChunk(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	sb := superblockOf(t, img)
	var dir ffs.Ino
	var head []byte
	for ino := ffs.Ino(3); uint32(ino) < sb.NInodes; ino++ {
		frag, off := sb.InodeFrag(ino)
		ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
		if ip.IsDir() && ip.Direct[0] >= sb.DataStart && ip.Direct[0] < sb.TotalFrags {
			dir = ino
			head = img[int64(ip.Direct[0])*ffs.FragSize:]
			break
		}
	}
	if dir == 0 {
		t.Skip("no non-root directory")
	}
	for i := 0; i < ffs.DirChunk; i++ {
		head[i] = 0xAB // invalid reclen everywhere
	}
	fsck.Repair(img)
	le := binary.LittleEndian
	if got := ffs.Ino(le.Uint32(head[0:])); got != dir {
		t.Errorf("reformatted chunk's '.' names inode %d, want %d", got, dir)
	}
	if name := string(head[8 : 8+head[6]]); name != "." {
		t.Errorf("first reseeded entry is %q, want %q", name, ".")
	}
	if rep := fsck.Check(img); len(rep.Findings) != 0 {
		t.Fatalf("image not clean after repair: %v", rep.Findings[0])
	}
}

// TestRepairIdempotent: repairing a repaired image must be a no-op — the
// clean re-check above is only trustworthy if Repair converges.
func TestRepairIdempotent(t *testing.T) {
	total := totalRuntime(t, "noorder", false)
	img := crashAt(t, "noorder", false, total/2)
	fsck.Repair(img)
	if again := fsck.Repair(img); len(again) != 0 {
		t.Fatalf("second repair still acted: %v", again)
	}
	if rep := fsck.Check(img); len(rep.Findings) != 0 {
		t.Fatalf("image not clean after repair: %v", rep.Findings[0])
	}
}

// TestRepairDeterministic repairs copies of one crashed image and wants
// the same action log, in the same order, and the same bytes every time:
// the log is what mdsim -faults prints, so it must not follow map order.
func TestRepairDeterministic(t *testing.T) {
	total := totalRuntime(t, "noorder", false)
	img := crashAt(t, "noorder", false, total/2)
	got := make([]byte, len(img))
	var want [sha256.Size]byte
	var wantActions []string
	for i := 0; i < 30; i++ {
		copy(got, img)
		actions := fsck.Repair(got)
		if i == 0 {
			want, wantActions = sha256.Sum256(got), actions
			if len(actions) < 2 {
				t.Fatalf("crashed image needs %d repair actions; the test needs several to order", len(actions))
			}
			continue
		}
		if !slices.Equal(actions, wantActions) {
			t.Fatalf("repair %d logged\n%s\nwant\n%s", i, strings.Join(actions, "\n"), strings.Join(wantActions, "\n"))
		}
		if sha256.Sum256(got) != want {
			t.Fatalf("repair %d wrote different bytes", i)
		}
	}
}

func TestRepairTruncatesBadPointers(t *testing.T) {
	r := buildCrashRig(t, "noorder", false, metadataChurn)
	r.eng.Run()
	img := r.dsk.CloneImage()
	sb := superblockOf(t, img)
	for ino := ffs.Ino(3); uint32(ino) < sb.NInodes; ino++ {
		frag, off := sb.InodeFrag(ino)
		ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
		if ip.Mode == ffs.ModeFile && ip.Size > ffs.BlockSize {
			ip.Direct[1] = sb.TotalFrags + 100 // out of range
			ffs.EncodeInode(&ip, img[int64(frag)*ffs.FragSize+int64(off):])
			break
		}
	}
	fsck.Repair(img)
	if v := fsck.Check(img).Violations(); len(v) != 0 {
		t.Fatalf("bad pointer survived repair: %v", v)
	}
}

// TestRepairRepointsDanglingDots: a directory whose "." or ".." names a
// free inode keeps the entry — "." re-pointed at the directory itself,
// ".." at the root — instead of losing it and failing the re-check with a
// directory that lacks its dots.
func TestRepairRepointsDanglingDots(t *testing.T) {
	for _, c := range []struct {
		name string
		off  int // the entry's offset in the first chunk
		want func(dir ffs.Ino) ffs.Ino
	}{
		{".", 0, func(dir ffs.Ino) ffs.Ino { return dir }},
		{"..", 12, func(ffs.Ino) ffs.Ino { return ffs.RootIno }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := buildCrashRig(t, "noorder", false, metadataChurn)
			r.eng.Run()
			img := r.dsk.CloneImage()
			sb := superblockOf(t, img)
			var dir, free ffs.Ino
			var head []byte
			for ino := ffs.Ino(3); uint32(ino) < sb.NInodes; ino++ {
				frag, off := sb.InodeFrag(ino)
				ip := ffs.DecodeInode(img[int64(frag)*ffs.FragSize+int64(off):])
				switch {
				case !ip.Allocated() && free == 0:
					free = ino
				case ip.IsDir() && dir == 0:
					dir = ino
					head = img[int64(ip.Direct[0])*ffs.FragSize:][:ffs.DirChunk]
				}
			}
			if dir == 0 || free == 0 {
				t.Fatal("rig has no non-root directory or no free inode")
			}
			if name := string(head[c.off+8 : c.off+8+int(head[c.off+6])]); name != c.name {
				t.Fatalf("entry at %d is %q, want %q", c.off, name, c.name)
			}
			le := binary.LittleEndian
			le.PutUint32(head[c.off:], uint32(free))
			actions := fsck.Repair(img)
			if got, want := ffs.Ino(le.Uint32(head[c.off:])), c.want(dir); got != want {
				t.Errorf("repaired %q names inode %d, want %d", c.name, got, want)
			}
			if !slices.ContainsFunc(actions, func(a string) bool { return strings.HasPrefix(a, "re-pointed dangling") }) {
				t.Errorf("no re-point action logged: %q", actions)
			}
			if rep := fsck.Check(img); len(rep.Findings) != 0 {
				t.Fatalf("image not clean after repair: %v", rep.Findings[0])
			}
		})
	}
}
