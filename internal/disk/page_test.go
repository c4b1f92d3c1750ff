package disk

import (
	"bytes"
	"testing"
)

// fill returns n sectors of a byte pattern that differs per sector.
func fill(n int, seed byte) []byte {
	b := make([]byte, n*SectorSize)
	for i := range b {
		b[i] = seed + byte(i/SectorSize)
	}
	return b
}

// materialized returns the media bytes allocated so far.
func (d *Disk) materialized() int64 {
	var n int64
	for _, pg := range d.pages {
		if pg != nil {
			n += pageBytes
		}
	}
	return n
}

func TestPageCrossingWriteAndRead(t *testing.T) {
	d := testDisk()
	const perPage = pageBytes / SectorSize
	// Three sectors before a page boundary through two full pages after it.
	lbn := int64(5*perPage - 3)
	data := fill(3+2*perPage, 1)
	d.Commit(lbn, data)
	got := make([]byte, len(data))
	d.ReadAt(lbn, got)
	if !bytes.Equal(got, data) {
		t.Fatal("page-crossing write did not read back")
	}
	// A read spanning a materialized page and an untouched one.
	span := make([]byte, 2*pageBytes)
	d.ReadAt(int64(6*perPage), span)
	if !bytes.Equal(span[:pageBytes], data[(3+perPage)*SectorSize:]) {
		t.Fatal("materialized half of a page-crossing read is wrong")
	}
	if !bytes.Equal(span[pageBytes:], make([]byte, pageBytes)) {
		t.Fatal("untouched page did not read as zeros")
	}
	if got, want := d.materialized(), int64(3*pageBytes); got != want {
		t.Fatalf("materialized %d bytes, want the %d of the three pages written", got, want)
	}
}

func TestShortLastPage(t *testing.T) {
	size := int64(3*pageBytes + 5*SectorSize)
	d := New(HPC2447(), size)
	if d.Sectors()*SectorSize != size {
		t.Fatalf("Sectors() = %d, want %d", d.Sectors(), size/SectorSize)
	}
	last := d.Sectors() - 5
	data := fill(5, 7)
	d.Commit(last, data)
	got := make([]byte, len(data))
	d.ReadAt(last, got)
	if !bytes.Equal(got, data) {
		t.Fatal("short last page did not read back")
	}
	img := d.Image()
	if int64(len(img)) != size || int64(cap(img)) != size {
		t.Fatalf("Image len %d cap %d, want %d", len(img), cap(img), size)
	}
	if !bytes.Equal(img[size-int64(len(data)):], data) {
		t.Fatal("flattened image lost the short last page")
	}
	// After flattening, the short page still aliases the image.
	more := fill(2, 40)
	d.Commit(d.Sectors()-2, more)
	if !bytes.Equal(img[size-int64(len(more)):], more) {
		t.Fatal("commit to the short last page missed the flattened image")
	}
	if !bytes.Equal(d.CloneImage(), img) {
		t.Fatal("CloneImage differs from Image")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("write past the end of a short last page did not panic")
		}
	}()
	d.Commit(d.Sectors()-1, fill(2, 0))
}

func TestImageAliasesLaterCommits(t *testing.T) {
	d := testDisk()
	d.Commit(10, fill(4, 1))
	img := d.Image()
	// Full commits and crash-prefix commits after flattening, on touched
	// and untouched pages and across a page boundary, all land in img.
	const perPage = pageBytes / SectorSize
	d.Commit(10, fill(2, 9))
	d.Commit(int64(40*perPage-1), fill(3, 20))
	d.CommitPrefix(int64(90*perPage), fill(8, 30), 3)
	for _, c := range []struct {
		lbn  int64
		want []byte
	}{
		{10, fill(2, 9)},
		{12, fill(4, 1)[2*SectorSize:]},
		{40*perPage - 1, fill(3, 20)},
		{90 * perPage, append(fill(3, 30), make([]byte, 5*SectorSize)...)},
	} {
		off := c.lbn * SectorSize
		if !bytes.Equal(img[off:off+int64(len(c.want))], c.want) {
			t.Fatalf("image at sector %d does not reflect the later commit", c.lbn)
		}
		got := make([]byte, len(c.want))
		d.ReadAt(c.lbn, got)
		if !bytes.Equal(got, c.want) {
			t.Fatalf("ReadAt(%d) after flattening disagrees", c.lbn)
		}
	}
	if &d.Image()[0] != &img[0] {
		t.Fatal("second Image call returned a different slice")
	}
	clone := d.CloneImage()
	if !bytes.Equal(clone, img) {
		t.Fatal("CloneImage differs from Image")
	}
	clone[10*SectorSize] ^= 0xFF
	if clone[10*SectorSize] == img[10*SectorSize] {
		t.Fatal("CloneImage aliases the media")
	}
}

func TestCloneImageMatchesImage(t *testing.T) {
	a, b := testDisk(), testDisk()
	for i, lbn := range []int64{0, 7, 31, 32, 1000, 50000, a.Sectors() - 1} {
		a.Commit(lbn, fill(1, byte(i+1)))
		b.Commit(lbn, fill(1, byte(i+1)))
	}
	// a stays lazily paged; b is flattened.
	if !bytes.Equal(a.CloneImage(), b.Image()) {
		t.Fatal("CloneImage of a paged disk differs from Image of the same media")
	}
}

// TestMaterializationBoundedByPagesTouched: one sector written in each of
// 100 far-apart regions materializes at most 100 pages.
func TestMaterializationBoundedByPagesTouched(t *testing.T) {
	d := New(HPC2447(), 384<<20)
	stride := d.Sectors() / 100
	for i := int64(0); i < 100; i++ {
		d.Commit(i*stride+3, fill(1, byte(i)))
	}
	if got, limit := d.materialized(), int64(100*pageBytes); got > limit {
		t.Fatalf("100 one-sector writes materialized %d bytes, want at most %d", got, limit)
	}
}

// TestAllocFreePageWrite: a write into an already-materialized page, and
// a read of it, allocate nothing.
func TestAllocFreePageWrite(t *testing.T) {
	d := testDisk()
	data := fill(16, 3)
	buf := make([]byte, len(data))
	d.Commit(100, data)
	if n := testing.AllocsPerRun(100, func() {
		d.Commit(100, data)
		d.ReadAt(100, buf)
	}); n != 0 {
		t.Fatalf("write into a materialized page allocates %.1f objects, want 0", n)
	}
}
