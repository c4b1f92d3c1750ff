package ffs

import (
	"encoding/binary"
	"fmt"

	"metaupdate/internal/cache"
	"metaupdate/internal/sim"
)

// Block map: translating file block indices to fragment addresses, growing
// files (including FFS fragment extension: a file's final partial block is
// a 1..8 fragment run that grows in place when the neighbouring fragments
// are free and must otherwise move to a new run — the "special case" the
// paper's soft-updates appendix discusses), and collecting every fragment
// run of a file for truncation.

func getPtr(b []byte, off int) int32 {
	return int32(binary.LittleEndian.Uint32(b[off:]))
}

func setPtr(b []byte, off int, v int32) {
	binary.LittleEndian.PutUint32(b[off:], uint32(v))
}

// ptrLoc describes where the pointer for a given file block lives, reading
// (and allocating, when alloc is true) indirect blocks along the way.
type ptrLoc struct {
	buf     *cache.Buf // inode table block or indirect block
	off     int        // byte offset of the int32 pointer within buf.Data
	isIndir bool       // pointer lives in an indirect block
}

// locatePtr finds the pointer slot for file block bi of inode ino. When
// alloc is true, missing indirect blocks are allocated (ordered as metadata
// allocations); when false, a zero pointer anywhere returns ok=false.
func (fs *FS) locatePtr(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff int, bi int, alloc bool) (ptrLoc, bool, error) {
	switch {
	case bi < 0 || bi >= MaxBlocks:
		panic(fmt.Sprintf("ffs: block index %d out of range", bi))
	case bi < NDirect:
		return ptrLoc{buf: ib, off: ioff + InoDirectOff(bi)}, true, nil
	case bi < NDirect+PtrsPerBlock:
		indirFrag := ip.Indir
		if indirFrag == 0 {
			if !alloc {
				return ptrLoc{}, false, nil
			}
			var err error
			indirFrag, err = fs.allocIndirect(p, ino, ip, ib, ioff, ioff+InoIndirOff)
			if err != nil {
				return ptrLoc{}, false, err
			}
			ip.Indir = indirFrag
		}
		nb, err := fs.cache.Bread(p, int64(indirFrag), BlockFrags)
		if err != nil {
			return ptrLoc{}, false, err
		}
		return ptrLoc{buf: nb, off: (bi - NDirect) * 4, isIndir: true}, true, nil
	default:
		// Double indirect: first level selects an indirect block, second
		// level the data block.
		di := bi - NDirect - PtrsPerBlock
		l1, l2 := di/PtrsPerBlock, di%PtrsPerBlock
		dFrag := ip.Dindir
		if dFrag == 0 {
			if !alloc {
				return ptrLoc{}, false, nil
			}
			var err error
			dFrag, err = fs.allocIndirect(p, ino, ip, ib, ioff, ioff+InoDindirOff)
			if err != nil {
				return ptrLoc{}, false, err
			}
			ip.Dindir = dFrag
		}
		db, err := fs.cache.Bread(p, int64(dFrag), BlockFrags)
		if err != nil {
			return ptrLoc{}, false, err
		}
		l1frag := getPtr(db.Data, l1*4)
		if l1frag == 0 {
			if !alloc {
				return ptrLoc{}, false, nil
			}
			var err error
			l1frag, err = fs.allocIndirectAt(p, ino, db, l1*4)
			if err != nil {
				return ptrLoc{}, false, err
			}
		}
		nb, err := fs.cache.Bread(p, int64(l1frag), BlockFrags)
		if err != nil {
			return ptrLoc{}, false, err
		}
		return ptrLoc{buf: nb, off: l2 * 4, isIndir: true}, true, nil
	}
}

// allocIndirect allocates a zero-filled indirect block whose pointer lives
// in the inode at inoPtrOff (absolute offset within the inode-table block).
func (fs *FS) allocIndirect(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff, inoPtrOff int) (int32, error) {
	defer ib.Hold().Unhold()
	frag, err := fs.allocFrags(p, BlockFrags, fs.preferredCG(ino, ip))
	if err != nil {
		return 0, err
	}
	nb := fs.cache.Getblk(p, int64(frag), BlockFrags)
	rec := &AllocRec{
		FS: fs, NewBuf: nb, NewFrag: frag, NewNFr: BlockFrags, IsIndir: true,
		OwnerBuf: ib, OwnerIno: ino, PtrOff: inoPtrOff,
		OldSize: ip.Size, NewSize: ip.Size,
	}
	rec.DataInit = nb.Data
	fs.ord.AllocInit(p, rec)
	fs.cache.PrepareModify(p, ib)
	setPtr(ib.Data, inoPtrOff, frag)
	fs.ord.AllocPtr(p, rec)
	return frag, nil
}

// allocIndirectAt allocates an indirect block pointed to from another
// indirect block (the double-indirect first level).
func (fs *FS) allocIndirectAt(p *sim.Proc, ino Ino, owner *cache.Buf, ptrOff int) (int32, error) {
	defer owner.Hold().Unhold()
	frag, err := fs.allocFrags(p, BlockFrags, fs.preferredCG(ino, nil))
	if err != nil {
		return 0, err
	}
	nb := fs.cache.Getblk(p, int64(frag), BlockFrags)
	rec := &AllocRec{
		FS: fs, NewBuf: nb, NewFrag: frag, NewNFr: BlockFrags, IsIndir: true,
		OwnerBuf: owner, OwnerIno: ino, OwnerIsIndir: true, PtrOff: ptrOff,
	}
	rec.DataInit = nb.Data
	fs.ord.AllocInit(p, rec)
	fs.cache.PrepareModify(p, owner)
	setPtr(owner.Data, ptrOff, frag)
	fs.ord.AllocPtr(p, rec)
	return frag, nil
}

// BlockRunLen returns how many fragments file block bi of a file of the
// given size occupies: BlockFrags, except for a partial final block (bi
// must be < BlocksOf(size)).
func BlockRunLen(size uint64, bi int) int {
	if bi == BlocksOf(size)-1 {
		return lastBlockFrags(size)
	}
	return BlockFrags
}

// readBlock returns the buffer for file block bi (read path).
func (fs *FS) readBlock(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff, bi int) (*cache.Buf, error) {
	loc, ok, err := fs.locatePtr(p, ino, ip, ib, ioff, bi, false)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("ffs: hole at block %d of inode %d", bi, ino)
	}
	frag := getPtr(loc.buf.Data, loc.off)
	if frag == 0 {
		return nil, fmt.Errorf("ffs: hole at block %d of inode %d", bi, ino)
	}
	return fs.cache.Bread(p, int64(frag), BlockRunLen(ip.Size, bi))
}

// growBlock makes file block bi exist with wantNF fragments, extending or
// moving the existing partial run if needed, and returns its buffer. fill
// is called to (re)initialize the buffer before ordering hooks fire when
// the block is new; for existing blocks the buffer contents are preserved.
//
// isDir marks directory blocks (always initialization-ordered). newSize is
// the inode size that will be in effect after the caller's write — it is
// stored into the inode here, together with the pointer, so that the
// pointer+size pair is covered by a single allocation dependency (exactly
// the allocdirect state of the paper's appendix).
func (fs *FS) growBlock(p *sim.Proc, ino Ino, ip *Inode, ib *cache.Buf, ioff, bi int, wantNF int, newSize uint64, isDir bool, fill func(data []byte)) (*cache.Buf, error) {
	// The inode-table block must survive the allocation sleeps below: a
	// concurrent (or our own) cache eviction replacing it would orphan the
	// pointer/size updates we are about to store.
	defer ib.Hold().Unhold()
	curBlocks := BlocksOf(ip.Size)
	oldSize := ip.Size

	if bi < curBlocks {
		oldNF := BlockRunLen(ip.Size, bi)
		loc, _, err := fs.locatePtr(p, ino, ip, ib, ioff, bi, false)
		if err != nil {
			return nil, err
		}
		frag := getPtr(loc.buf.Data, loc.off)
		if frag == 0 {
			return nil, fmt.Errorf("ffs: hole at block %d of inode %d", bi, ino)
		}
		if wantNF <= oldNF {
			// Existing block is already big enough.
			b, err := fs.cache.Bread(p, int64(frag), oldNF)
			if err != nil {
				return nil, err
			}
			b.Hold()
			if fill == nil {
				fs.updateSize(p, ip, ib, ioff, newSize)
				b.Unhold()
				return b, nil
			}
			// A fresh chunk inside already-allocated space (a directory
			// growing into the unused tail of its fragment): the size bump
			// points at bytes the old size never covered, so the chunk's
			// initialization must be ordered before the size can reach the
			// disk (rule 1), exactly as for a newly allocated block.
			fs.cache.PrepareModify(p, b)
			fill(b.Data)
			rec := &AllocRec{
				FS: fs, NewBuf: b, NewFrag: frag, NewNFr: oldNF, IsDir: isDir,
				OwnerBuf: ib, OwnerIno: ino, PtrOff: ioff + InoDirectOff(bi),
				OldPtr: frag, OldSize: oldSize, NewSize: newSize,
			}
			if bi >= NDirect {
				rec.OwnerIsIndir = true
				rec.OwnerBuf = loc.buf
				rec.PtrOff = loc.off
			}
			rec.DataInit = b.Data
			fs.ord.AllocInit(p, rec)
			fs.updateSizeRaw(p, ip, ib, ioff, newSize)
			fs.ord.AllocPtr(p, rec)
			if rec.OwnerIsIndir {
				// The size bytes live in the inode block, which must also
				// reach the disk eventually.
				fs.ord.MetaUpdate(p, ib)
			}
			b.Unhold()
			return b, nil
		}
		// Fragment extension.
		b, err := fs.cache.Bread(p, int64(frag), oldNF)
		if err != nil {
			return nil, err
		}
		defer b.Hold().Unhold()
		defer loc.buf.Hold().Unhold()
		if fs.tryExtendFrags(p, frag, oldNF, wantNF) {
			// In place: same address, more fragments. The added fragments
			// are an ordered allocation (they carry the new size).
			fs.cache.PrepareModify(p, b)
			fs.cache.Resize(b, wantNF)
			if fill != nil {
				fill(b.Data)
			}
			rec := &AllocRec{
				FS: fs, NewBuf: b, NewFrag: frag, NewNFr: wantNF, IsDir: isDir,
				OwnerBuf: ib, OwnerIno: ino, PtrOff: ioff + InoDirectOff(bi),
				OldPtr: frag, OldSize: oldSize, NewSize: newSize,
			}
			if bi >= NDirect {
				rec.OwnerIsIndir = true
				rec.OwnerBuf = loc.buf
				rec.PtrOff = loc.off
			}
			rec.DataInit = b.Data
			fs.ord.AllocInit(p, rec)
			fs.updateSizeRaw(p, ip, ib, ioff, newSize)
			fs.ord.AllocPtr(p, rec)
			if rec.OwnerIsIndir {
				// The pointer's ordering rode the indirect block; the size
				// bytes live in the inode block, which must also reach the
				// disk eventually.
				fs.ord.MetaUpdate(p, ib)
			}
			return b, nil
		}
		// Move: allocate a new run, copy, retarget pointer, free old run.
		newFrag, err := fs.allocFrags(p, wantNF, fs.cgOfFrag(frag))
		if err != nil {
			return nil, err
		}
		nb := fs.cache.Getblk(p, int64(newFrag), wantNF)
		defer nb.Hold().Unhold()
		fs.charge(p, fs.cfg.Costs.PerKBCopy*sim.Duration(oldNF))
		copy(nb.Data, b.Data)
		if fill != nil {
			fill(nb.Data)
		}
		rec := &AllocRec{
			FS: fs, NewBuf: nb, NewFrag: newFrag, NewNFr: wantNF, IsDir: isDir,
			OwnerBuf: loc.buf, OwnerIno: ino, OwnerIsIndir: loc.isIndir,
			PtrOff: loc.off, OldPtr: frag, OldSize: oldSize, NewSize: newSize,
			MovedFrom: &FragRun{Start: frag, N: oldNF},
			OldBuf:    b,
		}
		if !loc.isIndir {
			rec.OwnerBuf = ib
			rec.PtrOff = ioff + InoDirectOff(bi)
		}
		rec.DataInit = nb.Data
		fs.ord.AllocInit(p, rec)
		fs.cache.PrepareModify(p, loc.buf)
		setPtr(loc.buf.Data, rec.PtrOff, newFrag)
		fs.updateSizeRaw(p, ip, ib, ioff, newSize)
		fs.ord.AllocPtr(p, rec)
		if rec.OwnerIsIndir {
			fs.ord.MetaUpdate(p, ib)
		}
		return nb, nil
	}

	// Brand-new block. Files grow densely (no holes), so bi == curBlocks.
	if bi != curBlocks {
		return nil, fmt.Errorf("ffs: sparse write at block %d of inode %d", bi, ino)
	}
	frag, err := fs.allocFrags(p, wantNF, fs.preferredCG(ino, ip))
	if err != nil {
		return nil, err
	}
	loc, _, err := fs.locatePtr(p, ino, ip, ib, ioff, bi, true)
	if err != nil {
		fs.freeRun(p, FragRun{Start: frag, N: wantNF})
		return nil, err
	}
	defer loc.buf.Hold().Unhold()
	nb := fs.cache.Getblk(p, int64(frag), wantNF)
	defer nb.Hold().Unhold()
	if fill != nil {
		fill(nb.Data)
	}
	rec := &AllocRec{
		FS: fs, NewBuf: nb, NewFrag: frag, NewNFr: wantNF, IsDir: isDir,
		OwnerBuf: loc.buf, OwnerIno: ino, OwnerIsIndir: loc.isIndir,
		PtrOff: loc.off, OldSize: oldSize, NewSize: newSize,
	}
	rec.DataInit = nb.Data
	fs.ord.AllocInit(p, rec)
	fs.cache.PrepareModify(p, loc.buf)
	setPtr(loc.buf.Data, loc.off, frag)
	fs.updateSizeRaw(p, ip, ib, ioff, newSize)
	fs.ord.AllocPtr(p, rec)
	if rec.OwnerIsIndir {
		fs.ord.MetaUpdate(p, ib)
	}
	return nb, nil
}

// updateSize stores a new size via MetaUpdate (no allocation involved).
// Only the size field is touched: the decoded inode struct may be stale
// with respect to pointers stored directly into the buffer by growBlock,
// so a full re-encode would wipe them.
func (fs *FS) updateSize(p *sim.Proc, ip *Inode, ib *cache.Buf, ioff int, newSize uint64) {
	if ip.Size == newSize {
		return
	}
	fs.updateSizeRaw(p, ip, ib, ioff, newSize)
	fs.ord.MetaUpdate(p, ib)
}

// updateSizeRaw stores size as part of an allocation (the AllocPtr hook
// that follows owns the ordering; no MetaUpdate).
func (fs *FS) updateSizeRaw(p *sim.Proc, ip *Inode, ib *cache.Buf, ioff int, newSize uint64) {
	ip.Size = newSize
	fs.cache.PrepareModify(p, ib)
	binary.LittleEndian.PutUint64(ib.Data[ioff+InoSizeOff:], newSize)
}

// collectRuns gathers every fragment run of the file, including indirect
// blocks themselves, for truncation. On a read error (unreadable indirect
// block on a faulted disk) it returns the runs gathered so far together
// with the error: callers in hook context free the partial set and leak
// the rest — fsck's free-map reconciliation is the backstop.
func (fs *FS) collectRuns(p *sim.Proc, ip *Inode) ([]FragRun, error) {
	var runs []FragRun
	nblocks := BlocksOf(ip.Size)
	add := func(frag int32, n int) {
		if frag != 0 {
			runs = append(runs, FragRun{Start: frag, N: n})
		}
	}
	for bi := 0; bi < nblocks && bi < NDirect; bi++ {
		add(ip.Direct[bi], BlockRunLen(ip.Size, bi))
	}
	if ip.Indir != 0 {
		nb, err := fs.cache.Bread(p, int64(ip.Indir), BlockFrags)
		if err != nil {
			return runs, err
		}
		for i := 0; i < PtrsPerBlock; i++ {
			bi := NDirect + i
			if bi >= nblocks {
				break
			}
			add(getPtr(nb.Data, i*4), BlockRunLen(ip.Size, bi))
		}
		add(ip.Indir, BlockFrags)
	}
	if ip.Dindir != 0 {
		db, err := fs.cache.Bread(p, int64(ip.Dindir), BlockFrags)
		if err != nil {
			return runs, err
		}
		for l1 := 0; l1 < PtrsPerBlock; l1++ {
			base := NDirect + PtrsPerBlock + l1*PtrsPerBlock
			if base >= nblocks {
				break
			}
			l1frag := getPtr(db.Data, l1*4)
			if l1frag == 0 {
				continue
			}
			nb, err := fs.cache.Bread(p, int64(l1frag), BlockFrags)
			if err != nil {
				return runs, err
			}
			for l2 := 0; l2 < PtrsPerBlock; l2++ {
				bi := base + l2
				if bi >= nblocks {
					break
				}
				add(getPtr(nb.Data, l2*4), BlockRunLen(ip.Size, bi))
			}
			add(l1frag, BlockFrags)
		}
		add(ip.Dindir, BlockFrags)
	}
	return runs, nil
}
