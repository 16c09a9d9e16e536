package core

import (
	"math"
	"math/rand"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// leafIndexTree builds a balanced random mesh with one leaf refined down
// to morton.MaxLevel, so the index covers every level from coarse to the
// finest code.
func leafIndexTree(seed int64) *Tree {
	rng := rand.New(rand.NewSource(seed))
	tr := Create(Config{
		NVBMDevice: nvbm.New(nvbm.NVBM, 0),
		DRAMDevice: nvbm.New(nvbm.DRAM, 0),
	})
	tr.RefineWhere(sphere(rng.Float64(), rng.Float64(), rng.Float64(), 0.3, 0.1), uint8(2+rng.Intn(3)))
	const n = 1 << morton.MaxLevel
	deep := morton.Encode(uint32(rng.Intn(n)), uint32(rng.Intn(n)), uint32(rng.Intn(n)), morton.MaxLevel)
	tr.RefineWhere(func(c morton.Code) bool { return c.Contains(deep) }, morton.MaxLevel)
	tr.Balance()
	return tr
}

// scanContaining is the brute-force Containing: the first leaf whose
// inclusive KeySpan holds k.
func scanContaining(codes []morton.Code, k uint64) (int, bool) {
	for i, c := range codes {
		if lo, hi := c.KeySpan(); lo <= k && k <= hi {
			return i, true
		}
	}
	return 0, false
}

// checkLookups compares every lookup of ix at key k (and on the range
// [k, k2]) against a linear scan of its codes.
func checkLookups(t *testing.T, ix *LeafIndex, k, k2 uint64) {
	t.Helper()
	codes := ix.Codes()
	i, ok := ix.Containing(k)
	j, ok2 := scanContaining(codes, k)
	if ok != ok2 || (ok && i != j) {
		t.Fatalf("Containing(%#x) = (%d, %v), scan (%d, %v)", k, i, ok, j, ok2)
	}
	if c := morton.FromKey(k); c.Level() <= morton.MaxLevel {
		i, ok := ix.Find(c)
		found := false
		for j := range codes {
			if codes[j] == c {
				found = true
				if !ok || i != j {
					t.Fatalf("Find(%v) = (%d, %v), scan %d", c, i, ok, j)
				}
			}
		}
		if ok && !found {
			t.Fatalf("Find(%v) = %d, but no leaf has that code", c, i)
		}
	}
	first, last := ix.Window(k, k2)
	want := []int{}
	for j, c := range codes {
		if key := c.Key(); k <= key && key <= k2 {
			want = append(want, j)
		}
	}
	if len(want) == 0 {
		if last >= first {
			t.Fatalf("Window(%#x, %#x) = [%d, %d], want empty", k, k2, first, last)
		}
		return
	}
	if first != want[0] || last != want[len(want)-1] || last-first+1 != len(want) {
		t.Fatalf("Window(%#x, %#x) = [%d, %d], filter %d leaves from %d to %d",
			k, k2, first, last, len(want), want[0], want[len(want)-1])
	}
}

// TestLeafIndexMatchesBruteForce probes all three lookups at the first
// and last keys, at every leaf's KeySpan edges and one past them, and at
// random keys, on trees built from several seeds.
func TestLeafIndexMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr := leafIndexTree(seed)
		ix := tr.LeafSnapshot()
		codes := tr.LeafCodes()
		if ix.Len() != len(codes) {
			t.Fatalf("seed %d: index holds %d leaves, walk %d", seed, ix.Len(), len(codes))
		}
		sawMax := false
		for i, c := range codes {
			if ix.codes[i] != c {
				t.Fatalf("seed %d: index leaf %d = %v, walk %v", seed, i, ix.codes[i], c)
			}
			sawMax = sawMax || c.Level() == morton.MaxLevel
		}
		if !sawMax {
			t.Fatalf("seed %d: no MaxLevel leaf", seed)
		}
		// The code-list builder indexes the same leaves identically.
		fromCodes := NewLeafIndex(append([]morton.Code(nil), codes...))

		rng := rand.New(rand.NewSource(seed))
		probes := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1}
		for _, c := range codes {
			lo, hi := c.KeySpan()
			probes = append(probes, lo, hi, lo-1, hi+1, rng.Uint64())
		}
		for _, k := range probes {
			k2 := probes[rng.Intn(len(probes))]
			checkLookups(t, ix, k, k2)
			checkLookups(t, fromCodes, k, k2)
		}
		// Interior (non-leaf) codes are not found.
		for _, c := range codes {
			if c.Level() > 0 {
				if i, ok := ix.Find(c.Parent()); ok {
					t.Fatalf("seed %d: Find(parent of %v) = %d, want absent", seed, c, i)
				}
			}
		}
	}
}

// TestNewLeafIndexRejectsUnsorted: the code-list builder requires
// strictly ascending Z-order.
func TestNewLeafIndexRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLeafIndex accepted codes out of Z-order")
		}
	}()
	NewLeafIndex([]morton.Code{morton.Root.Child(1), morton.Root.Child(0)})
}

// FuzzLeafIndexLookup checks the lookups against a linear scan at
// arbitrary keys and key ranges; no input may panic.
func FuzzLeafIndexLookup(f *testing.F) {
	ix := leafIndexTree(7).LeafSnapshot()
	f.Add(uint64(0), uint64(math.MaxUint64))
	f.Add(uint64(math.MaxUint64), uint64(0))
	for _, c := range ix.Codes()[:4] {
		lo, hi := c.KeySpan()
		f.Add(lo, hi)
		f.Add(hi+1, hi+1)
	}
	f.Fuzz(func(t *testing.T, k, k2 uint64) {
		checkLookups(t, ix, k, k2)
	})
}
