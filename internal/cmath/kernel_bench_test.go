package cmath

import (
	"math/rand"
	"testing"
)

// kernelCases are the operand shapes of the gate-error models' Taylor and
// evolution loops: 3×3 (one driven transmon) and 9×9 (two coupled
// transmons), each as a dense random anti-Hermitian generator and as the
// model's own, mostly-zero Hamiltonian generator.
var kernelCases = []struct {
	name string
	gen  func() *Matrix
}{
	{"3x3-dense", func() *Matrix { return denseGenerator(3) }},
	{"3x3-drive", driveGenerator},
	{"9x9-dense", func() *Matrix { return denseGenerator(9) }},
	{"9x9-cz", czGenerator},
}

func denseGenerator(n int) *Matrix {
	h := randMatrixRC(rand.New(rand.NewSource(int64(n))), n, n, false)
	return Scale(complex(0, -0.1), Add(h, Dagger(h)))
}

// BenchmarkMulInto multiplies a dense propagator by a generator, the
// product shape of an evolution step and a Taylor term.
func BenchmarkMulInto(b *testing.B) {
	for _, c := range kernelCases {
		b.Run(c.name, func(b *testing.B) {
			gen := c.gen()
			u := Expm(gen)
			dst := NewMatrix(gen.Rows, gen.Cols)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulInto(dst, u, gen)
			}
		})
	}
}

func BenchmarkExpmInto(b *testing.B) {
	for _, c := range kernelCases {
		b.Run(c.name, func(b *testing.B) {
			gen := c.gen()
			dst := NewMatrix(gen.Rows, gen.Cols)
			var w ExpmWorkspace
			w.ExpmInto(dst, gen) // size the scratch before timing
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.ExpmInto(dst, gen)
			}
		})
	}
}
