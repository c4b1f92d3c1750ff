package ffs

import (
	"encoding/binary"
)

// Mode values (a tiny subset of UNIX modes — just what metadata integrity
// cares about).
const (
	ModeFree uint16 = 0
	ModeFile uint16 = 0x8000
	ModeDir  uint16 = 0x4000
)

// Inode field offsets within the 128-byte on-disk inode. The int32 block
// pointers hold fragment numbers (the address of the first fragment of the
// block or fragment run); 0 means unallocated.
const (
	inoOffMode   = 0
	inoOffNlink  = 2
	inoOffSize   = 4  // uint64
	inoOffDirect = 12 // 12 * int32
	inoOffIndir  = 60 // int32
	inoOffDindir = 64 // int32
	inoOffGen    = 68 // uint32 generation (debugging aid)
)

// InoSizeOff is the byte offset of the size field within an encoded inode
// (exported for the soft-updates rollback machinery).
const InoSizeOff = inoOffSize

// InoDirectOff returns the byte offset of direct pointer i within an
// encoded inode.
func InoDirectOff(i int) int { return inoOffDirect + 4*i }

// InoIndirOff is the byte offset of the single-indirect pointer.
const InoIndirOff = inoOffIndir

// InoDindirOff is the byte offset of the double-indirect pointer.
const InoDindirOff = inoOffDindir

// Inode is the in-core (decoded) form of an on-disk inode.
type Inode struct {
	Mode   uint16
	Nlink  uint16
	Size   uint64
	Direct [NDirect]int32
	Indir  int32
	Dindir int32
	Gen    uint32
}

// IsDir reports whether the inode is a directory.
func (ip *Inode) IsDir() bool { return ip.Mode == ModeDir }

// Allocated reports whether the inode is in use.
func (ip *Inode) Allocated() bool { return ip.Mode != ModeFree }

func (ip *Inode) encode(b []byte) {
	le := binary.LittleEndian
	le.PutUint16(b[inoOffMode:], ip.Mode)
	le.PutUint16(b[inoOffNlink:], ip.Nlink)
	le.PutUint64(b[inoOffSize:], ip.Size)
	for i, d := range ip.Direct {
		le.PutUint32(b[inoOffDirect+4*i:], uint32(d))
	}
	le.PutUint32(b[inoOffIndir:], uint32(ip.Indir))
	le.PutUint32(b[inoOffDindir:], uint32(ip.Dindir))
	le.PutUint32(b[inoOffGen:], ip.Gen)
}

func (ip *Inode) decode(b []byte) {
	le := binary.LittleEndian
	ip.Mode = le.Uint16(b[inoOffMode:])
	ip.Nlink = le.Uint16(b[inoOffNlink:])
	ip.Size = le.Uint64(b[inoOffSize:])
	for i := range ip.Direct {
		ip.Direct[i] = int32(le.Uint32(b[inoOffDirect+4*i:]))
	}
	ip.Indir = int32(le.Uint32(b[inoOffIndir:]))
	ip.Dindir = int32(le.Uint32(b[inoOffDindir:]))
	ip.Gen = le.Uint32(b[inoOffGen:])
}

// DecodeInode decodes an inode from raw bytes (used by fsck).
func DecodeInode(b []byte) Inode {
	var ip Inode
	ip.decode(b)
	return ip
}

// DecodeInodeInto decodes an inode from raw bytes in place, sparing the
// return-value copy on decode-heavy paths (fsck's incremental checker
// re-decodes every inode a delta touches, per check).
func DecodeInodeInto(ip *Inode, b []byte) { ip.decode(b) }

// EncodeInode encodes ip into b (used by tests and fsck repair).
func EncodeInode(ip *Inode, b []byte) { ip.encode(b) }

// lastBlockFrags returns how many fragments the final block of a file of
// the given size occupies (0 for empty files; BlockFrags when the size is
// an exact multiple of the block size is NOT returned — the final block is
// then a full block and this returns BlockFrags).
func lastBlockFrags(size uint64) int {
	if size == 0 {
		return 0
	}
	rem := size % BlockSize
	if rem == 0 {
		return BlockFrags
	}
	return int((rem + FragSize - 1) / FragSize)
}

// BlocksOf returns the number of file blocks (of any size) a file of the
// given size has.
func BlocksOf(size uint64) int {
	return int((size + BlockSize - 1) / BlockSize)
}
