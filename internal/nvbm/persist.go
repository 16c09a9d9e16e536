package nvbm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
)

// Image file format:
//
//	magic   [8]byte  "PMNVBM01"
//	kind    uint8
//	size    uint64   data length
//	data    [size]byte
//	crc     uint32   CRC-32 (IEEE) of data
//
// Only NVBM devices may be persisted; persisting DRAM would be modeling a
// battery-backed DIMM, which the paper does not assume.

var imageMagic = [8]byte{'P', 'M', 'N', 'V', 'B', 'M', '0', '1'}

// SnapshotTo writes the device contents to w in the image format. The
// transfer is administrative (an offline copy), so no latency is charged.
func (d *Device) SnapshotTo(w io.Writer) error {
	if d.kind != NVBM {
		return fmt.Errorf("nvbm: cannot snapshot %s device; only NVBM persists", d.kind)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(imageMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(d.kind)); err != nil {
		return err
	}
	var sz [8]byte
	binary.LittleEndian.PutUint64(sz[:], uint64(len(d.data)))
	if _, err := bw.Write(sz[:]); err != nil {
		return err
	}
	if _, err := bw.Write(d.data); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(d.data))
	if _, err := bw.Write(crc[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// RestoreFrom replaces the device contents with an image previously written
// by SnapshotTo. Statistics and wear counters are preserved.
func (d *Device) RestoreFrom(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("nvbm: reading image magic: %w", err)
	}
	if magic != imageMagic {
		return fmt.Errorf("nvbm: bad image magic %q", magic[:])
	}
	kindByte, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("nvbm: reading image kind: %w", err)
	}
	if Kind(kindByte) != NVBM {
		return fmt.Errorf("nvbm: image kind %s is not NVBM", Kind(kindByte))
	}
	var sz [8]byte
	if _, err := io.ReadFull(br, sz[:]); err != nil {
		return fmt.Errorf("nvbm: reading image size: %w", err)
	}
	n := binary.LittleEndian.Uint64(sz[:])
	if n > maxImageBytes {
		return fmt.Errorf("nvbm: image size %d exceeds limit %d", n, uint64(maxImageBytes))
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(br, data); err != nil {
		return fmt.Errorf("nvbm: reading image data: %w", err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(br, crcb[:]); err != nil {
		return fmt.Errorf("nvbm: reading image checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(data), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return fmt.Errorf("nvbm: image checksum mismatch: got %#x want %#x", got, want)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("nvbm: trailing data after image checksum")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.setData(data)
	if d.kind == NVBM {
		wear := make([]uint32, (len(data)+LineSize-1)/LineSize)
		copy(wear, d.wear)
		d.wear = wear
	}
	if d.track.Load() {
		d.lineCRC = make([]uint32, len(d.wear))
		for line := range d.lineCRC {
			d.lineCRC[line] = d.lineChecksumLocked(line)
		}
	}
	return nil
}

// maxImageBytes bounds the size field of an image so a corrupt or hostile
// header cannot drive a multi-exabyte allocation.
const maxImageBytes = 1 << 31

// PersistFile writes the device image to path atomically (via a temp file
// and rename), the way a careful NVDIMM flush daemon would.
func (d *Device) PersistFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := d.SnapshotTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// OpenFile creates an NVBM device from an image file written by
// PersistFile, emulating remapping a persistent region after restart.
func OpenFile(path string) (*Device, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := New(NVBM, 0)
	if err := d.RestoreFrom(f); err != nil {
		return nil, err
	}
	return d, nil
}

// Clone returns an independent copy of the device's current contents with
// fresh access statistics. It is used by the replica subsystem to model a
// remote copy of a persistent region; the byte transfer is charged to the
// network model by the caller, not to memory latency here. Wear history,
// the media-tracking CRC shadow, the wear limit, and the spare-line pool
// carry over — after a failover the clone IS the device, and endurance
// analysis must not silently restart from zero.
func (d *Device) Clone() *Device {
	d.mu.RLock()
	defer d.mu.RUnlock()
	nd := New(d.kind, len(d.data))
	copy(nd.data, d.data)
	nd.lat = d.lat
	copy(nd.wear, d.wear)
	if d.track.Load() {
		nd.lineCRC = append([]uint32(nil), d.lineCRC...)
		nd.track.Store(true)
	}
	nd.wearLimit.Store(d.wearLimit.Load())
	nd.spare = d.spare
	return nd
}

// DiffLines returns the indices of all LineSize-aligned lines of d whose
// contents differ from base, treating base as zero-extended when d is
// larger. It is the delta computation for replica shipping; no latency is
// charged (the primary's controller tracks dirty lines for free in this
// model).
func (d *Device) DiffLines(base *Device) []int {
	a := d.Bytes()
	b := base.Bytes()
	var lines []int
	for lo := 0; lo < len(a); lo += LineSize {
		hi := min(lo+LineSize, len(a))
		var ref []byte
		if lo < len(b) {
			ref = b[lo:min(hi, len(b))]
		}
		if !lineEqual(a[lo:hi], ref) {
			lines = append(lines, lo/LineSize)
		}
	}
	return lines
}

// lineEqual reports whether line contents a match ref, with ref
// zero-extended to len(a).
func lineEqual(a, ref []byte) bool {
	for i := range a {
		var r byte
		if i < len(ref) {
			r = ref[i]
		}
		if a[i] != r {
			return false
		}
	}
	return true
}

// ApplyLines copies the given lines from src into d, growing d to src's
// size first. It models a replica applying a received delta frame: wear is
// bumped for each applied line (the replica's cells absorb the stores) and
// the CRC shadow is refreshed, but no latency is charged — the network
// model prices the transfer.
func (d *Device) ApplyLines(src *Device, lines []int) {
	b := src.Bytes()
	d.Grow(len(b))
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, line := range lines {
		lo := line * LineSize
		hi := min(lo+LineSize, len(b))
		if lo < 0 || lo >= hi || hi > len(d.data) {
			continue
		}
		copy(d.data[lo:hi], b[lo:hi])
		if line < len(d.wear) {
			atomic.AddUint32(&d.wear[line], 1)
		}
		if d.track.Load() && line < len(d.lineCRC) {
			atomic.StoreUint32(&d.lineCRC[line], d.lineChecksumLocked(line))
		}
	}
}

// Bytes returns a copy of the raw device contents. Intended for tests and
// diffing in the replica model; no latency is charged.
func (d *Device) Bytes() []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]byte, len(d.data))
	copy(out, d.data)
	return out
}
