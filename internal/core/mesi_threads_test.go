package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/workloads"
)

// TestMESIBeyond16Threads runs MESI with sharers on tiles 16 and up. The
// directory's sharer set was once a uint16, so `1 << tile` dropped those
// sharers: their copies were never invalidated and upgrades NACK-looped
// forever. Each cell must finish, pass the functional oracle and clamp
// no kernel event.
func TestMESIBeyond16Threads(t *testing.T) {
	for _, tc := range []struct {
		bench   string
		threads int
	}{
		{"uniform", 42},
		{"FFT", 32},
		{"uniform", 64},
	} {
		done := make(chan error, 1)
		var m *Matrix
		go func() {
			var err error
			m, err = RunMatrix(MatrixOptions{
				Size: workloads.Tiny, Threads: tc.threads, MeshWidth: 8, MeshHeight: 8,
				Protocols: []string{"MESI"}, Benchmarks: []string{tc.bench}, Workers: 1,
			})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s, %d threads: %v", tc.bench, tc.threads, err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("%s, %d threads: MESI did not finish (livelock)", tc.bench, tc.threads)
		}
		if res := m.Get(m.Benchmarks[0], "MESI"); res.KernelClamped != 0 {
			t.Errorf("%s, %d threads: %d events clamped to now", tc.bench, tc.threads, res.KernelClamped)
		}
	}
}

// TestMESIThreadLimit pins the loud rejection of MESI runs past the
// directory's 64 sharer bits; DeNovo keeps no sharer lists and plans fine.
func TestMESIThreadLimit(t *testing.T) {
	opt := MatrixOptions{Size: workloads.Tiny, Threads: 65, MeshWidth: 16, MeshHeight: 16,
		Benchmarks: []string{"uniform"}}
	for _, protos := range [][]string{{"MESI"}, {"DeNovo", "MESI+MemL1"}, nil} {
		opt.Protocols = protos
		if _, err := planMatrix(opt); err == nil || !strings.Contains(err.Error(), "at most 64 threads") {
			t.Errorf("protocols %v at 65 threads: err = %v, want the MESI thread limit", protos, err)
		}
	}
	opt.Protocols = []string{"DeNovo", "DBypFull"}
	if _, err := planMatrix(opt); err != nil {
		t.Errorf("DeNovo at 65 threads: %v", err)
	}
	opt.Threads, opt.Protocols = 64, []string{"MESI"}
	if _, err := planMatrix(opt); err != nil {
		t.Errorf("MESI at 64 threads: %v", err)
	}
}
