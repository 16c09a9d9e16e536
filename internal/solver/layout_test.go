package solver

import (
	"math"
	"math/rand"
	"testing"
)

// TestCSRMatchesReferenceBitIdentical pins the layout contract: every
// kernel must produce bit-identical output sweeping the flat CSR arrays
// and sweeping the legacy AoS face lists, on an adaptive mesh where
// matched, coarse, fine and wall faces all occur.
func TestCSRMatchesReferenceBitIdentical(t *testing.T) {
	leaves := adaptiveLeaves(4)
	csr, err := Build(leaves)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(leaves)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetReferenceMode(true)
	n := csr.N()

	rng := rand.New(rand.NewSource(17))
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	check := func(kernel string, a, b []float64) {
		t.Helper()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: cell %d: csr %v, reference %v (must be bit-identical)", kernel, i, a[i], b[i])
			}
		}
	}

	x, u, v, w, p := vec(), vec(), vec(), vec(), vec()
	ya, yb := make([]float64, n), make([]float64, n)

	csr.Apply(x, ya)
	ref.Apply(x, yb)
	check("Apply", ya, yb)

	csr.ApplyNeumann(x, ya)
	ref.ApplyNeumann(x, yb)
	check("ApplyNeumann", ya, yb)

	csr.Divergence(u, v, w, ya)
	ref.Divergence(u, v, w, yb)
	check("Divergence", ya, yb)

	gxa, gya, gza := make([]float64, n), make([]float64, n), make([]float64, n)
	gxb, gyb, gzb := make([]float64, n), make([]float64, n), make([]float64, n)
	csr.Gradient(p, gxa, gya, gza)
	ref.Gradient(p, gxb, gyb, gzb)
	check("Gradient.x", gxa, gxb)
	check("Gradient.y", gya, gyb)
	check("Gradient.z", gza, gzb)

	csr.ProjectedDivergence(u, v, w, p, 0.01, ya)
	ref.ProjectedDivergence(u, v, w, p, 0.01, yb)
	check("ProjectedDivergence", ya, yb)

	// End-to-end: whole solves agree bitwise, iterations and all.
	b := vec()
	xa, xb := make([]float64, n), make([]float64, n)
	ra, err := csr.Solve(b, xa, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ref.Solve(b, xb, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Fatalf("Solve results diverged: csr %+v, reference %+v", ra, rb)
	}
	check("Solve.x", xa, xb)

	csr.Divergence(u, v, w, b)
	for i := range xa {
		xa[i], xb[i] = 0, 0
	}
	ra, err = csr.SolveNeumann(b, xa, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	rb, err = ref.SolveNeumann(b, xb, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Fatalf("SolveNeumann results diverged: csr %+v, reference %+v", ra, rb)
	}
	check("SolveNeumann.x", xa, xb)
}

// TestCellAtMatchesReference: the sorted-key binary search must locate
// exactly the cell the legacy map-probe ancestor walk did, for random
// interior points, points on cell boundaries, and points outside the
// domain.
func TestCellAtMatchesReference(t *testing.T) {
	s, err := Build(adaptiveLeaves(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	probe := func(x, y, z float64) {
		t.Helper()
		i, ok := s.CellAt(x, y, z)
		j, ok2 := s.referenceCellAt(x, y, z)
		if ok != ok2 || (ok && i != j) {
			t.Fatalf("CellAt(%v, %v, %v) = (%d, %v), reference (%d, %v)", x, y, z, i, ok, j, ok2)
		}
	}
	for k := 0; k < 2000; k++ {
		probe(rng.Float64(), rng.Float64(), rng.Float64())
	}
	// Cell corners and centers of every cell.
	for _, c := range s.Codes() {
		x, y, z := c.Center()
		e := c.Extent()
		probe(x, y, z)
		probe(x-e/2, y-e/2, z-e/2)
		// Max corner: the cell's last finest cell, one ulp inside.
		probe(math.Nextafter(x+e/2, 0), math.Nextafter(y+e/2, 0), math.Nextafter(z+e/2, 0))
	}
	// Outside and at the far boundary.
	below1 := math.Nextafter(1, 0)
	probe(below1, below1, below1)
	probe(-0.1, 0.5, 0.5)
	probe(0.5, 1.0, 0.5)
	probe(1.5, 0.5, 0.5)
	probe(0, 0, 0)
}
