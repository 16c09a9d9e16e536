package nvbm

import (
	"fmt"
	"time"
)

// Stats is a point-in-time snapshot of a Device's access counters.
type Stats struct {
	Kind       Kind
	Reads      uint64 // read operations
	Writes     uint64 // write operations
	ReadBytes  uint64
	WriteBytes uint64
	ModeledNs  uint64 // accumulated modeled latency
}

// bucketSizes bounds the per-size access buckets: every access of up to
// two cache lines (0 to 128 bytes: the 88-byte octant record, its
// fields, bitmap and u64 words) counts in its own size's bucket.
const bucketSizes = 129

// Stats returns a snapshot of the device's counters. The per-size buckets
// fold exactly: the latency model is fixed at construction, so a bucket
// of c accesses of n bytes contributed c reads, c·n bytes and
// c·ReadNanos(n) modeled nanoseconds, the same integers the charges
// would have added one by one.
func (d *Device) Stats() Stats {
	s := Stats{
		Kind:       d.kind,
		Reads:      d.reads.Load(),
		Writes:     d.writes.Load(),
		ReadBytes:  d.readBytes.Load(),
		WriteBytes: d.writeBytes.Load(),
		ModeledNs:  d.modeledNs.Load(),
	}
	for n := range bucketSizes {
		if c := d.readsBy[n].Load(); c != 0 {
			s.Reads += c
			s.ReadBytes += c * uint64(n)
			s.ModeledNs += c * d.lat.ReadNanos(n)
		}
		if c := d.writesBy[n].Load(); c != 0 {
			s.Writes += c
			s.WriteBytes += c * uint64(n)
			s.ModeledNs += c * d.lat.WriteNanos(n)
		}
	}
	return s
}

// ResetStats zeroes all access counters. Wear counters are not reset:
// endurance damage is permanent.
func (d *Device) ResetStats() {
	for n := range bucketSizes {
		d.readsBy[n].Store(0)
		d.writesBy[n].Store(0)
	}
	d.reads.Store(0)
	d.writes.Store(0)
	d.readBytes.Store(0)
	d.writeBytes.Store(0)
	d.modeledNs.Store(0)
}

// Accesses returns the total number of read and write operations.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// WriteFraction returns the fraction of accesses that were writes, in
// [0,1]. It returns 0 when no accesses have occurred.
func (s Stats) WriteFraction() float64 {
	total := s.Accesses()
	if total == 0 {
		return 0
	}
	return float64(s.Writes) / float64(total)
}

// Modeled returns the accumulated modeled latency as a time.Duration.
func (s Stats) Modeled() time.Duration { return time.Duration(s.ModeledNs) }

// satSub subtracts saturating at zero. A counter can read lower than an
// earlier snapshot after ResetStats (or a snapshot taken on a different
// device); a delta must then clamp rather than wrap to ~2^64.
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Sub returns the counter deltas s - earlier, for interval measurements.
// Deltas saturate at zero, so a snapshot pair straddling ResetStats
// yields zeros instead of wrapped garbage.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		Kind:       s.Kind,
		Reads:      satSub(s.Reads, earlier.Reads),
		Writes:     satSub(s.Writes, earlier.Writes),
		ReadBytes:  satSub(s.ReadBytes, earlier.ReadBytes),
		WriteBytes: satSub(s.WriteBytes, earlier.WriteBytes),
		ModeledNs:  satSub(s.ModeledNs, earlier.ModeledNs),
	}
}

// Add returns the counter sums s + other. Kind is taken from s.
func (s Stats) Add(other Stats) Stats {
	return Stats{
		Kind:       s.Kind,
		Reads:      s.Reads + other.Reads,
		Writes:     s.Writes + other.Writes,
		ReadBytes:  s.ReadBytes + other.ReadBytes,
		WriteBytes: s.WriteBytes + other.WriteBytes,
		ModeledNs:  s.ModeledNs + other.ModeledNs,
	}
}

// String formats the snapshot for humans.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d reads (%d B), %d writes (%d B), modeled %v",
		s.Kind, s.Reads, s.ReadBytes, s.Writes, s.WriteBytes, s.Modeled())
}

// WearStats summarizes per-line write wear of an NVBM device.
type WearStats struct {
	Lines     int    // number of tracked lines
	MaxWear   uint32 // writes to the most-written line
	TotalWear uint64
}

// Wear returns wear statistics. For DRAM devices it returns a zero value:
// DRAM endurance is effectively unlimited.
func (d *Device) Wear() WearStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var ws WearStats
	ws.Lines = len(d.wear)
	for i := range d.wear {
		w := d.wear[i]
		ws.TotalWear += uint64(w)
		if w > ws.MaxWear {
			ws.MaxWear = w
		}
	}
	return ws
}

// WearMax returns the highest per-line write count within the byte range
// [from, to) — for separating data-region wear from metadata hot spots.
func (d *Device) WearMax(from, to int) uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var m uint32
	lo := from / LineSize
	hi := (to + LineSize - 1) / LineSize
	if hi > len(d.wear) {
		hi = len(d.wear)
	}
	for i := lo; i < hi && i >= 0; i++ {
		if d.wear[i] > m {
			m = d.wear[i]
		}
	}
	return m
}

// Sub returns the wear accumulated since an earlier snapshot. TotalWear
// differences saturating at zero (wear never decreases, but snapshots of
// different devices must not wrap). Lines and MaxWear are NOT deltas:
// both are point-in-time properties — a line count can shrink only by
// swapping devices, and the hottest line's identity can change between
// snapshots, so a MaxWear difference would mix two different lines. Sub
// keeps the later snapshot's values for them; interval analyses should
// use TotalWear (and MeanWear derived from it) only.
func (ws WearStats) Sub(earlier WearStats) WearStats {
	return WearStats{
		Lines:     ws.Lines,
		MaxWear:   ws.MaxWear,
		TotalWear: satSub(ws.TotalWear, earlier.TotalWear),
	}
}

// MeanWear returns the average writes per line, or 0 with no lines.
func (ws WearStats) MeanWear() float64 {
	if ws.Lines == 0 {
		return 0
	}
	return float64(ws.TotalWear) / float64(ws.Lines)
}

// WearImbalance returns max/mean wear, a measure of hot-spotting; 0 when
// unwritten. Values near 1 indicate even wear-leveling.
func (ws WearStats) WearImbalance() float64 {
	m := ws.MeanWear()
	if m == 0 {
		return 0
	}
	return float64(ws.MaxWear) / m
}
