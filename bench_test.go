// Host-speed benches: end-to-end simulation throughput, one simulation per
// iteration, over cases of the ablation table (ablations_test.go), whose
// simulated numbers TestGoldenAblationsTiny pins. The repo's end-to-end
// benchmark, with repeated samples and a correctness gate, is perfbench/.
//
//	go test -bench=SimThroughput -benchmem -run '^$' .
package repro

import "testing"

// benchCase times the named ablation case.
func benchCase(b *testing.B, name string) {
	c, err := caseByName(name)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.run(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimThroughputMESI(b *testing.B)       { benchCase(b, "SimThroughputMESI") }
func BenchmarkSimThroughputDBypFull(b *testing.B)   { benchCase(b, "SimThroughputDBypFull") }
func BenchmarkSimThroughputVCMESI(b *testing.B)     { benchCase(b, "SimThroughputVCMESI") }
func BenchmarkSimThroughputVCDBypFull(b *testing.B) { benchCase(b, "SimThroughputVCDBypFull") }
func BenchmarkSimThroughputVCHotspot(b *testing.B)  { benchCase(b, "SimThroughputVCHotspot") }
func BenchmarkSimThroughputVCUniform(b *testing.B)  { benchCase(b, "SimThroughputVCUniform") }
func BenchmarkSimThroughputDeflectionMESI(b *testing.B) {
	benchCase(b, "SimThroughputDeflectionMESI")
}
func BenchmarkSimThroughputDeflectionHotspot(b *testing.B) {
	benchCase(b, "SimThroughputDeflectionHotspot")
}
func BenchmarkSimThroughputDeflectionUniform(b *testing.B) {
	benchCase(b, "SimThroughputDeflectionUniform")
}
func BenchmarkSimThroughputVCMesh8x8(b *testing.B)   { benchCase(b, "SimThroughputVCMesh8x8") }
func BenchmarkSimThroughputVCMesh16x16(b *testing.B) { benchCase(b, "SimThroughputVCMesh16x16") }
func BenchmarkSimThroughputVCSparseHotspot16x16(b *testing.B) {
	benchCase(b, "SimThroughputVCSparseHotspot16x16")
}
