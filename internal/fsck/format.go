package fsck

// The FFS on-disk format, decoded in one place for every reader in this
// package: walkMap is the block-map walker and scanDir the directory-entry
// iterator. They own only the format. What a pointer or an entry means —
// a claim, a finding, a truncation point, a reference, a content marker to
// check — is each caller's policy, expressed in its callback.

import (
	"encoding/binary"

	"metaupdate/internal/ffs"
)

// mapLevel says what a pointer met by walkMap addresses.
type mapLevel uint8

const (
	directData  mapLevel = iota // a data run named by an inode's direct slot
	indirData                   // a data run named by a single-indirect slot
	dindirData                  // a data run named by a slot under the double-indirect block
	indirBlock                  // the inode's single-indirect block
	dindirBlock                 // the inode's double-indirect block
	l1Block                     // a single-indirect block named by the double-indirect block
)

// data reports whether the pointer names a file data run.
func (l mapLevel) data() bool { return l <= dindirData }

// mapPtr is one pointer met by walkMap.
type mapPtr struct {
	level mapLevel
	slot  int   // index in the inode's direct array or in the pointer block holding it
	bi    int   // first file block the pointer maps
	ptr   int32 // fragment address; 0 is a hole
	n     int   // fragments named: the block's run length, or BlockFrags for a pointer block
	// inSize: the pointer maps blocks the inode's size implies. Only the
	// inode's own indirect and double-indirect pointers can lack it.
	inSize bool
}

// walkStep is a walkMap callback's verdict on a pointer.
type walkStep uint8

const (
	walkOn   walkStep = iota // continue; at a pointer block, walk its slots
	walkSkip                 // at a pointer block, skip the blocks it maps
	walkStop                 // end the walk
)

// walkMap walks ip's block map in file-block order, calling fn for every
// pointer: the direct slots and the slots of walked pointer blocks that
// map blocks ip.Size implies, and the inode's single- and double-indirect
// pointers whatever the size. A pointer block is read only when fn
// returns walkOn for it; the walker never checks a pointer, so fn must
// not walk into a hole or off the media. Slots are copied out before fn
// sees them, so fn may read the image freely.
func walkMap(img Image, ip *ffs.Inode, fn func(p mapPtr) walkStep) {
	nblocks := ffs.BlocksOf(ip.Size)
	for bi := 0; bi < nblocks && bi < ffs.NDirect; bi++ {
		if fn(mapPtr{directData, bi, bi, ip.Direct[bi], ffs.BlockRunLen(ip.Size, bi), true}) == walkStop {
			return
		}
	}
	// slots walks the data slots of the pointer block at ptr, whose first
	// slot maps file block bi; it reports whether fn let the walk go on.
	slots := func(ptr int32, level mapLevel, bi int) bool {
		var ptrs [ffs.PtrsPerBlock]int32
		n := min(len(ptrs), nblocks-bi)
		b := img.Range(int64(ptr)*ffs.FragSize, ffs.BlockSize)
		for i := 0; i < n; i++ {
			ptrs[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		for i := 0; i < n; i, bi = i+1, bi+1 {
			if fn(mapPtr{level, i, bi, ptrs[i], ffs.BlockRunLen(ip.Size, bi), true}) == walkStop {
				return false
			}
		}
		return true
	}
	bi := ffs.NDirect
	switch fn(mapPtr{indirBlock, 0, bi, ip.Indir, ffs.BlockFrags, bi < nblocks}) {
	case walkStop:
		return
	case walkOn:
		if !slots(ip.Indir, indirData, bi) {
			return
		}
	}
	bi += ffs.PtrsPerBlock
	if fn(mapPtr{dindirBlock, 0, bi, ip.Dindir, ffs.BlockFrags, bi < nblocks}) != walkOn {
		return
	}
	var l1 [ffs.PtrsPerBlock]int32
	n := min(len(l1), (nblocks-bi+ffs.PtrsPerBlock-1)/ffs.PtrsPerBlock)
	b := img.Range(int64(ip.Dindir)*ffs.FragSize, ffs.BlockSize)
	for i := 0; i < n; i++ {
		l1[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	for i := 0; i < n; i, bi = i+1, bi+ffs.PtrsPerBlock {
		switch fn(mapPtr{l1Block, i, bi, l1[i], ffs.BlockFrags, true}) {
		case walkStop:
			return
		case walkOn:
			if !slots(l1[i], dindirData, bi) {
				return
			}
		}
	}
}

// inData reports whether the fragment run [start, start+n) lies in the
// data region.
func inData(sb *ffs.Superblock, start int32, n int) bool {
	return start >= sb.DataStart && int64(start)+int64(n) <= int64(sb.TotalFrags)
}

// dirent is one directory entry decoded by scanDir.
type dirent struct {
	off     int // byte offset of the entry in the directory's data
	ino     ffs.Ino
	reclen  int
	namelen int
	ftype   uint8
	// bad: the entry is malformed — its reclen is shorter than a header or
	// runs past its chunk, or it is in use and its name runs past its
	// reclen. The rest of its chunk is not decoded.
	bad bool
}

// name returns an in-use, well-formed entry's name within data.
func (e *dirent) name(data []byte) []byte {
	return data[e.off+ffs.DirentHdr : e.off+ffs.DirentHdr+e.namelen]
}

// scanDir decodes a directory's data chunk by chunk (a trailing partial
// chunk is ignored), calling fn for every entry in order, empty ones
// included; fn returning false ends the scan. A malformed entry ends its
// chunk, and so does a header that would run past the end of data.
func scanDir(data []byte, fn func(e dirent) bool) {
	le := binary.LittleEndian
	for chunk := 0; chunk+ffs.DirChunk <= len(data); chunk += ffs.DirChunk {
		for off := chunk; off < chunk+ffs.DirChunk && off+ffs.DirentHdr <= len(data); {
			e := dirent{
				off:     off,
				ino:     ffs.Ino(le.Uint32(data[off:])),
				reclen:  int(le.Uint16(data[off+4:])),
				namelen: int(data[off+6]),
				ftype:   data[off+7],
			}
			e.bad = e.reclen < ffs.DirentHdr || off+e.reclen > chunk+ffs.DirChunk ||
				(e.ino != 0 && ffs.DirentHdr+e.namelen > e.reclen)
			if !fn(e) {
				return
			}
			if e.bad {
				break
			}
			off += e.reclen
		}
	}
}
