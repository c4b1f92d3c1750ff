package fsck

import (
	"encoding/binary"
	"fmt"

	"metaupdate/internal/ffs"
)

// Repair fixes an image in place the way the fsck utility the paper leans
// on would ("each requires assistance (provided by the fsck utility in
// UNIX systems) when recovering from system failure"):
//
//   - free maps are rebuilt from the reachable structures (reclaiming
//     leaked blocks and inodes, re-marking referenced ones);
//   - link counts are set to the observed reference counts;
//   - directory entries naming unallocated inodes are cleared;
//   - inodes whose size implies blocks that are missing or out of range
//     are truncated to the portion that verifies;
//   - allocated inodes with no remaining references are freed (a real
//     fsck moves them to lost+found; this substrate has none).
//
// It returns the actions taken, in a deterministic order: every pass visits
// inodes in ascending order. After Repair, Check reports no findings
// unless the damage was beyond this repertoire (cross-linked blocks are
// resolved by truncating the later claimant).
func Repair(img []byte) []string {
	var actions []string
	var sb ffs.Superblock
	if err := decodeSB(Bytes(img), &sb); err != nil {
		return []string{"unrepairable: " + err.Error()}
	}
	r := &repairer{deriver: deriver{img: Bytes(img), sb: &sb}, raw: img}
	log := func(format string, args ...interface{}) {
		actions = append(actions, fmt.Sprintf(format, args...))
	}

	// Pass 1: validate block maps, truncating inodes whose maps do not
	// verify (bad range, holes, cross-links — first claimant wins).
	// inodes[ino] holds every surviving inode; a free slot is unallocated.
	inodes := make([]ffs.Inode, sb.NInodes)
	owner := make([]ffs.Ino, sb.TotalFrags-sb.DataStart)
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		ip := r.readInode(ino)
		if !ip.Allocated() {
			continue
		}
		if ip.Mode != ffs.ModeFile && ip.Mode != ffs.ModeDir {
			r.clearInode(ino)
			log("cleared inode %d with bad mode %#x", ino, ip.Mode)
			continue
		}
		if r.claimPrefix(ino, &ip, owner) {
			r.putInode(ino, &ip)
			log("truncated inode %d to %d bytes (unverifiable block map)", ino, ip.Size)
		}
		inodes[ino] = ip
	}
	live := func(ino ffs.Ino) bool { return uint32(ino) < sb.NInodes && inodes[ino].Allocated() }

	// Pass 2: directory structure — reformat garbage chunks, reseed missing
	// "."/".." — then count references and clear dangling entries.
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		if ip := &inodes[ino]; ip.IsDir() {
			r.repairDirStructure(ino, ip, log)
			if ip.Size > 0 && !r.dirHasDots(ip) {
				reformatChunk(r.dirChunk(ip, 0), ino, true)
				log("reseeded '.' and '..' in directory %d", ino)
			}
		}
	}
	// A dangling "." or ".." in the first chunk is re-pointed rather than
	// cleared — "." at the directory itself, ".." at the root, as
	// reformatChunk seeds them — so the directory keeps its dots.
	refs := make([]int, sb.NInodes)
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		if ip := &inodes[ino]; ip.IsDir() {
			data := r.dirData(ip, nil)
			scanDir(data, func(e dirent) bool {
				switch {
				case e.bad || e.ino == 0:
				case !live(e.ino):
					to := ffs.Ino(0)
					if e.off < ffs.DirChunk {
						switch string(e.name(data)) {
						case ".":
							to = ino
						case "..":
							if live(ffs.RootIno) {
								to = ffs.RootIno
							}
						}
					}
					binary.LittleEndian.PutUint32(r.raw[r.dirOff(ip, e.off):], uint32(to))
					if to == 0 {
						log("cleared dangling entry in inode %d (named %d)", ino, e.ino)
						break
					}
					refs[to]++
					log("re-pointed dangling %q in directory %d (named %d) at inode %d", e.name(data), ino, e.ino, to)
				default:
					refs[e.ino]++
				}
				return true
			})
		}
	}

	// Pass 3: link counts and orphan inodes.
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		ip := &inodes[ino]
		if !ip.Allocated() {
			continue
		}
		if refs[ino] == 0 && ino != ffs.RootIno {
			r.clearInode(ino)
			*ip = ffs.Inode{}
			log("freed orphan inode %d (no references)", ino)
			continue
		}
		if int(ip.Nlink) != refs[ino] {
			ip.Nlink = uint16(refs[ino])
			r.putInode(ino, ip)
			log("set inode %d link count to %d", ino, refs[ino])
		}
	}

	// Pass 4: rebuild both bitmaps from scratch. Ownership comes from the
	// checker's own walk of the surviving inodes (pass 1 state may be
	// stale after pass 3 cleared orphans).
	owned := make([]bool, sb.TotalFrags-sb.DataStart)
	var rec inodeRec
	for ino := ffs.Ino(2); uint32(ino) < sb.NInodes; ino++ {
		if !live(ino) {
			continue
		}
		r.deriveInode(ino, &rec)
		for _, st := range rec.steps {
			if st.kind != claimStepKind {
				continue
			}
			for f := st.start; f < st.start+st.n; f++ {
				owned[f-sb.DataStart] = true
			}
		}
	}
	fbm := img[int64(sb.FBmapStart)*ffs.FragSize:]
	changedF := 0
	for f := int32(0); f < sb.TotalFrags; f++ {
		if setBit(fbm, int64(f), f < sb.DataStart || owned[f-sb.DataStart]) {
			changedF++
		}
	}
	if changedF > 0 {
		log("rebuilt fragment bitmap (%d bits corrected)", changedF)
	}
	ibm := img[int64(sb.IBmapStart)*ffs.FragSize:]
	changedI := 0
	for ino := ffs.Ino(0); uint32(ino) < sb.NInodes; ino++ {
		if setBit(ibm, int64(ino), live(ino) || ino <= ffs.RootIno) {
			changedI++
		}
	}
	if changedI > 0 {
		log("rebuilt inode bitmap (%d bits corrected)", changedI)
	}
	return actions
}

// setBit sets bit i of bm to want and reports whether that changed it.
func setBit(bm []byte, i int64, want bool) bool {
	mask := byte(1) << (i % 8)
	if (bm[i/8]&mask != 0) == want {
		return false
	}
	bm[i/8] ^= mask
	return true
}

// repairer reads the image through a deriver and writes fixes to raw, the
// same bytes.
type repairer struct {
	deriver
	raw []byte
}

// claimPrefix claims ip's block map in file order up to the first pointer
// the size implies that is a hole, leaves the data region, or touches a
// fragment owner already holds for another inode; claims are
// all-or-nothing per run. If there is such a pointer it truncates ip to
// end before the block that pointer maps, dropping every pointer that maps
// only blocks from there on, and reports true.
func (r *repairer) claimPrefix(ino ffs.Ino, ip *ffs.Inode, owner []ffs.Ino) bool {
	claim := func(start int32, n int) bool {
		if !inData(r.sb, start, n) {
			return false
		}
		run := owner[start-r.sb.DataStart:][:n]
		for _, o := range run {
			if o != 0 && o != ino {
				return false
			}
		}
		for i := range run {
			run[i] = ino
		}
		return true
	}
	cut, indirAt, dindirAt := -1, 0, 0
	walkMap(r.img, ip, func(p mapPtr) walkStep {
		switch p.level {
		case indirBlock:
			indirAt = p.bi
		case dindirBlock:
			dindirAt = p.bi
		}
		if cut >= 0 || !p.inSize {
			return walkSkip
		}
		if p.ptr == 0 || !claim(p.ptr, p.n) {
			cut = p.bi
			return walkSkip
		}
		return walkOn
	})
	if cut < 0 {
		return false
	}
	ip.Size = min(ip.Size, uint64(cut)*ffs.BlockSize)
	for bi := cut; bi < ffs.NDirect; bi++ {
		ip.Direct[bi] = 0
	}
	if cut <= indirAt {
		ip.Indir = 0
	}
	if cut <= dindirAt {
		ip.Dindir = 0
	}
	return true
}

func (r *repairer) putInode(ino ffs.Ino, ip *ffs.Inode) {
	frag, off := r.sb.InodeFrag(ino)
	ffs.EncodeInode(ip, r.raw[int64(frag)*ffs.FragSize+int64(off):])
}

func (r *repairer) clearInode(ino ffs.Ino) {
	r.putInode(ino, &ffs.Inode{})
}

// dirOff returns the image offset of byte off of a directory's data. The
// directory's direct blocks up to off must be in the data region, which
// pass 1 guarantees for every surviving inode.
func (r *repairer) dirOff(ip *ffs.Inode, off int) int64 {
	return int64(ip.Direct[off/ffs.BlockSize])*ffs.FragSize + int64(off%ffs.BlockSize)
}

// dirChunk returns the writable chunk at byte off of a directory's data.
func (r *repairer) dirChunk(ip *ffs.Inode, off int) []byte {
	return r.raw[r.dirOff(ip, off):][:ffs.DirChunk]
}

// dirHasDots reports whether the directory's first chunk holds both "."
// and "..".
func (r *repairer) dirHasDots(ip *ffs.Inode) bool {
	head := r.dirChunk(ip, 0)
	sawDot, sawDotdot := false, false
	scanDir(head, func(e dirent) bool {
		if !e.bad && e.ino != 0 {
			switch string(e.name(head)) {
			case ".":
				sawDot = true
			case "..":
				sawDotdot = true
			}
		}
		return true
	})
	return sawDot && sawDotdot
}

// reformatChunk turns a structurally invalid 512-byte directory chunk into
// a single empty entry; for a directory's first chunk, "." and ".." are
// re-seeded ("..", with the true parent unknowable, points at the root —
// a real fsck would reattach under lost+found).
func reformatChunk(chunk []byte, self ffs.Ino, first bool) {
	for i := range chunk {
		chunk[i] = 0
	}
	if !first {
		ffs.PutDirent(chunk, 0, len(chunk), "", 0)
		return
	}
	ffs.PutDirent(chunk[0:], self, 12, ".", ffs.FtypeDir)
	ffs.PutDirent(chunk[12:], ffs.RootIno, len(chunk)-12, "..", ffs.FtypeDir)
}

// repairDirStructure reformats the chunks of one directory that hold a
// malformed entry or, beyond the checker's rule, an entry whose reclen is
// not a multiple of 4.
func (r *repairer) repairDirStructure(ino ffs.Ino, ip *ffs.Inode, log func(string, ...interface{})) {
	bad := -1
	scanDir(r.dirData(ip, nil), func(e dirent) bool {
		chunk := e.off - e.off%ffs.DirChunk
		if chunk != bad && (e.bad || e.reclen%4 != 0) {
			bad = chunk
			reformatChunk(r.dirChunk(ip, chunk), ino, chunk == 0)
			log("reformatted garbage chunk %d of directory %d", chunk%ffs.BlockSize, ino)
		}
		return true
	})
}
