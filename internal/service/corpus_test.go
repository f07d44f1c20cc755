package service_test

import (
	"testing"

	"gpa/internal/gpusim"
	"gpa/internal/kernels"
	"gpa/internal/service"
	"gpa/internal/store"
)

// corpusPayloads returns the profile and advice payloads of every
// Table 3 row's baseline kernel, advised as gpad advises a bundled row
// (one simulated SM), as a disk hit reads them back, and each row's
// entry.
func corpusPayloads(tb testing.TB) (profiles, advice [][]byte, entries []string) {
	tb.Helper()
	var reqs []*service.Request
	for _, b := range kernels.All() {
		k, wl, err := b.Base.Build()
		if err != nil {
			tb.Fatal(err)
		}
		l := k.Launch
		entries = append(entries, l.Entry)
		reqs = append(reqs, &service.Request{
			Kind:   service.KindAdvise,
			Module: k.Module,
			Launch: gpusim.LaunchConfig{
				Entry:             l.Entry,
				Grid:              gpusim.Dim3{X: l.GridX, Y: l.GridY, Z: l.GridZ},
				Block:             gpusim.Dim3{X: l.BlockX, Y: l.BlockY, Z: l.BlockZ},
				RegsPerThread:     l.RegsPerThread,
				SharedMemPerBlock: l.SharedMemPerBlock,
			},
			SimSMs: 1, Seed: 11, Parallelism: 1, Workload: wl, WorkloadKey: b.ID(),
		})
	}
	profiles, advice = service.StagePayloads(tb, reqs)
	return profiles, advice, entries
}

// BenchmarkStageDecode prices the part of a disk hit that no bench/
// layer metric reaches — store.disk_get_us stops at the frame check —
// over the corpus: one op decodes every payload of the stage, and MB/s
// is payload bytes.
func BenchmarkStageDecode(b *testing.B) {
	profiles, advice, entries := corpusPayloads(b)
	for _, c := range []struct {
		name     string
		decode   func([]byte, string, store.Key) (*service.Response, error)
		payloads [][]byte
	}{
		{"profile", service.DecodeProfile, profiles},
		{"advice", service.DecodeAdvice, advice},
	} {
		b.Run(c.name, func(b *testing.B) {
			n := 0
			for _, p := range c.payloads {
				n += len(p)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for b.Loop() {
				for i, p := range c.payloads {
					if _, err := c.decode(p, entries[i], store.Key{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestValidJSONAllocationFree pins that validating a stage document
// allocates nothing: the nesting stack stays in its fixed buffer.
func TestValidJSONAllocationFree(t *testing.T) {
	profiles, advice, _ := corpusPayloads(t)
	for _, p := range append(profiles, advice...) {
		if !service.ValidJSON(p) {
			t.Fatalf("a stored document is not valid: %.80q", p)
		}
		if avg := testing.AllocsPerRun(20, func() { service.ValidJSON(p) }); avg != 0 {
			t.Fatalf("validJSON allocates %.1f times over a %d-byte document", avg, len(p))
		}
	}
}
