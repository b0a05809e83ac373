package blueprint

import (
	"fmt"
	"testing"

	"aurochs/internal/fabric"
	"aurochs/internal/record"
)

// fingerprint captures everything a run can observably produce: elapsed
// cycles, the full stats counter set, DRAM traffic, per-link push/pop
// totals, and every sink's records bit-for-bit.
type fingerprint struct {
	cycles int64
	stats  string
	dram   int64
	links  []string
	sinks  [][]record.Rec
}

// runBlueprint builds a fresh instance and runs it on the given worker
// count, returning the execution fingerprint.
func runBlueprint(t *testing.T, bp Blueprint, workers int) fingerprint {
	t.Helper()
	g, err := bp.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	g.Workers = workers
	cycles, err := g.Run(2_000_000)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	fp := fingerprint{cycles: cycles, stats: g.Stats().String()}
	if g.HBM != nil {
		fp.dram = g.HBM.BytesMoved()
	}
	for _, l := range g.Sys.Links() {
		fp.links = append(fp.links, fmt.Sprintf("%s:%d/%d", l.Name(), l.Pushes(), l.Pops()))
	}
	for _, c := range g.Sys.Components() {
		if s, ok := c.(*fabric.Sink); ok {
			fp.sinks = append(fp.sinks, s.Records())
		}
	}
	return fp
}

func diffFingerprints(t *testing.T, label string, ref, got fingerprint) {
	t.Helper()
	if got.cycles != ref.cycles {
		t.Errorf("%s: cycles %d != reference %d", label, got.cycles, ref.cycles)
	}
	if got.stats != ref.stats {
		t.Errorf("%s: stats diverge\nreference:\n%s\ngot:\n%s", label, ref.stats, got.stats)
	}
	if got.dram != ref.dram {
		t.Errorf("%s: DRAM traffic %d bytes != reference %d", label, got.dram, ref.dram)
	}
	if len(got.links) != len(ref.links) {
		t.Fatalf("%s: link census differs (%d vs %d)", label, len(got.links), len(ref.links))
	}
	for i := range ref.links {
		if got.links[i] != ref.links[i] {
			t.Errorf("%s: link %s != reference %s", label, got.links[i], ref.links[i])
		}
	}
	if len(got.sinks) != len(ref.sinks) {
		t.Fatalf("%s: sink census differs (%d vs %d)", label, len(got.sinks), len(ref.sinks))
	}
	for i := range ref.sinks {
		if len(got.sinks[i]) != len(ref.sinks[i]) {
			t.Errorf("%s: sink %d holds %d records, reference %d", label, i, len(got.sinks[i]), len(ref.sinks[i]))
			continue
		}
		for j := range ref.sinks[i] {
			if got.sinks[i][j] != ref.sinks[i][j] {
				t.Errorf("%s: sink %d record %d differs: %v vs %v", label, i, j, got.sinks[i][j], ref.sinks[i][j])
				break
			}
		}
	}
}

// TestWorkerCountEquivalence is the worker-invariance gate: on every
// registered blueprint, the parallel kernel at 2, 3, 4 and 8 workers must
// be observably identical to the serial kernel — same cycles, same stats,
// same DRAM traffic, same per-link flit totals, same sink records. The
// reference asks for one worker explicitly, so AUROCHS_WORKERS cannot move
// it off the serial kernel.
func TestWorkerCountEquivalence(t *testing.T) {
	for _, bp := range All() {
		t.Run(bp.Name, func(t *testing.T) {
			ref := runBlueprint(t, bp, 1)
			for _, w := range []int{2, 3, 4, 8} {
				diffFingerprints(t, fmt.Sprintf("workers=%d", w), ref, runBlueprint(t, bp, w))
			}
		})
	}
}
