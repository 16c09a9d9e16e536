package nvbm

import (
	"bytes"
	"math/rand"
	"testing"
)

// A delta across ResetStats must clamp to zero, not wrap to ~2^64: the
// telemetry layer differences snapshots blindly.
func TestStatsSubSaturates(t *testing.T) {
	d := New(NVBM, LineSize)
	buf := make([]byte, 8)
	for i := 0; i < 5; i++ {
		d.WriteAt(0, buf)
		d.ReadAt(0, buf)
	}
	before := d.Stats()
	d.ResetStats()
	d.WriteAt(0, buf)
	delta := d.Stats().Sub(before)
	if delta.Reads != 0 || delta.ReadBytes != 0 || delta.ModeledNs != 0 {
		t.Errorf("delta across ResetStats wrapped: %+v", delta)
	}
	if delta.Writes != 0 {
		t.Errorf("Writes delta = %d, want 0 (1 new write < 5 before reset)", delta.Writes)
	}
}

func TestStatsSubExactDeltas(t *testing.T) {
	d := New(NVBM, LineSize)
	buf := make([]byte, 8)
	d.WriteAt(0, buf)
	before := d.Stats()
	d.WriteAt(0, buf)
	d.WriteAt(0, buf)
	d.ReadAt(0, buf)
	delta := d.Stats().Sub(before)
	if delta.Writes != 2 || delta.Reads != 1 {
		t.Errorf("delta = %d writes / %d reads, want 2/1", delta.Writes, delta.Reads)
	}
	if delta.WriteBytes != 16 || delta.ReadBytes != 8 {
		t.Errorf("delta bytes = %dW/%dR, want 16/8", delta.WriteBytes, delta.ReadBytes)
	}
	if delta.ModeledNs == 0 {
		t.Error("ModeledNs delta = 0, want > 0")
	}
}

func TestWearStatsSub(t *testing.T) {
	d := New(NVBM, 4*LineSize)
	buf := make([]byte, 8)
	d.WriteAt(0, buf)
	d.WriteAt(0, buf)
	before := d.Wear()
	d.WriteAt(0, buf)
	d.WriteAt(LineSize, buf)
	after := d.Wear()

	delta := after.Sub(before)
	if delta.TotalWear != 2 {
		t.Errorf("TotalWear delta = %d, want 2", delta.TotalWear)
	}
	// Lines and MaxWear are point-in-time, not differenced: the hottest
	// line's identity may change between snapshots.
	if delta.Lines != after.Lines {
		t.Errorf("Lines = %d, want the later snapshot's %d", delta.Lines, after.Lines)
	}
	if delta.MaxWear != after.MaxWear {
		t.Errorf("MaxWear = %d, want the later snapshot's %d", delta.MaxWear, after.MaxWear)
	}
}

// Wear survives ResetStats (endurance damage is permanent), so a wear
// delta straddling a reset still measures real writes — unlike the access
// counters, which clamp.
func TestWearSurvivesResetStats(t *testing.T) {
	d := New(NVBM, LineSize)
	buf := make([]byte, 8)
	d.WriteAt(0, buf)
	before := d.Wear()
	d.ResetStats()
	d.WriteAt(0, buf)
	delta := d.Wear().Sub(before)
	if delta.TotalWear != 1 {
		t.Errorf("TotalWear delta across ResetStats = %d, want 1", delta.TotalWear)
	}
}

func TestWearStatsSubSaturates(t *testing.T) {
	a := WearStats{Lines: 1, MaxWear: 1, TotalWear: 1}
	b := WearStats{Lines: 2, MaxWear: 5, TotalWear: 10}
	if got := a.Sub(b).TotalWear; got != 0 {
		t.Errorf("TotalWear = %d, want 0 (saturating)", got)
	}
}

// refStats accumulates charges the way the device did before per-size
// buckets: one op, byte and modeled-ns add per charge. The bucket fold
// in Stats must reproduce it exactly.
type refStats struct {
	lat Latency
	st  Stats
}

func (r *refStats) read(count, n int) {
	if count <= 0 {
		return
	}
	r.st.Reads += uint64(count)
	r.st.ReadBytes += uint64(count * n)
	r.st.ModeledNs += uint64(count) * r.lat.ReadNanos(n)
}

func (r *refStats) write(count, n int) {
	if count <= 0 {
		return
	}
	r.st.Writes += uint64(count)
	r.st.WriteBytes += uint64(count * n)
	r.st.ModeledNs += uint64(count) * r.lat.WriteNanos(n)
}

// TestCounterFoldMatchesTripleAccounting charges a seeded mix of reads
// and writes, single and bulk, on both sides of the bucket boundary
// (128/129 bytes), and checks the folded Stats against the reference
// triple after every phase: plain charges, ResetStats, unmetered
// charges, a Clone, and a scrub pass.
func TestCounterFoldMatchesTripleAccounting(t *testing.T) {
	sizes := []int{0, 1, 4, 8, 32, 88, 128, 129, 4096}
	lats := []Latency{
		DefaultLatency(NVBM),
		DefaultLatency(DRAM),
		{ReadNs: 7, WriteNs: 13, LineReadNs: 3, LineWriteNs: 5},
	}
	for li, lat := range lats {
		d := NewWithLatency(NVBM, 2*4096, lat)
		ref := &refStats{lat: lat, st: Stats{Kind: NVBM}}
		rng := rand.New(rand.NewSource(int64(li) + 1))
		charge := func(ops int) {
			for i := 0; i < ops; i++ {
				n := sizes[rng.Intn(len(sizes))]
				count := 1
				if rng.Intn(3) == 0 {
					count = rng.Intn(50) // includes 0: a no-op charge
				}
				switch rng.Intn(4) {
				case 0:
					d.ReadAt(rng.Intn(4096), make([]byte, n))
					ref.read(1, n)
				case 1:
					d.WriteAt(rng.Intn(4096), make([]byte, n))
					ref.write(1, n)
				case 2:
					d.ChargeReadN(count, n)
					ref.read(count, n)
				default:
					d.ChargeWriteN(count, n)
					ref.write(count, n)
				}
			}
		}
		check := func(phase string) {
			t.Helper()
			if got := d.Stats(); got != ref.st {
				t.Fatalf("latency %d, %s: Stats() = %+v, want %+v", li, phase, got, ref.st)
			}
		}

		charge(2000)
		check("seeded mix")

		d.ResetStats()
		ref.st = Stats{Kind: NVBM}
		check("after ResetStats")
		charge(500)
		check("charges after ResetStats")

		d.SetAccounting(false)
		saved := ref.st
		charge(500)
		ref.st = saved
		d.SetAccounting(true)
		check("unmetered charges")

		c := d.Clone()
		if got := c.Stats(); got != (Stats{Kind: NVBM}) {
			t.Fatalf("latency %d: Clone stats = %+v, want fresh", li, got)
		}
		c.ChargeReadN(3, 88)
		check("after charging the clone")

		d.EnableMediaTracking()
		d.FlipBit(5, 1)
		before := d.Stats()
		rep := d.Scrub(func(off int, p []byte) bool { return true })
		lines := (d.Size() + LineSize - 1) / LineSize
		ref.read(lines, LineSize)
		ref.write(rep.Repaired+rep.Remapped, LineSize)
		check("scrub pass")
		want := uint64(lines)*lat.ReadNanos(LineSize) + uint64(rep.Repaired+rep.Remapped)*lat.WriteNanos(LineSize)
		if rep.ModeledNs != want || d.Stats().Sub(before).ModeledNs != want {
			t.Fatalf("latency %d: scrub ModeledNs = %d (stats delta %d), want %d",
				li, rep.ModeledNs, d.Stats().Sub(before).ModeledNs, want)
		}
		if rep.Repaired != 1 {
			t.Fatalf("latency %d: scrub repaired %d lines, want 1", li, rep.Repaired)
		}
	}
}

// The lock-free read path moves no data through the heap.
func TestReadAtAllocatesNothing(t *testing.T) {
	d := New(NVBM, 64<<10)
	d.WriteAt(0, bytes.Repeat([]byte{7}, 64<<10))
	buf := make([]byte, 88)
	off := 0
	if n := testing.AllocsPerRun(1000, func() {
		d.ReadAt(off, buf)
		off = (off + 88) % (64<<10 - 88)
	}); n != 0 {
		t.Errorf("ReadAt allocates %v times per call, want 0", n)
	}
}
