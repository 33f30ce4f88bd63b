package comm_test

import (
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/mmu"
	"igpucomm/internal/soc"
)

// TestPinnedLinesNeverCached checks the zero-copy invariant over all 45
// device x app x model combos at catalog.Quick: GPU accesses to a pinned
// buffer take the pinned path and bypass the GPU caches, so after Run no
// line of a pinned buffer is resident in the GPU LLC. The run frees its
// buffers, so the pinned addresses come from placing the model's plan on a
// fresh twin platform, where the allocator hands out the same ones. The
// check needs something to see: some model with pinned buffers must leave
// cached lines resident in the LLC beside them.
func TestPinnedLinesNeverCached(t *testing.T) {
	var checked, resident int64
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			w, err := catalog.ByName(app, catalog.Quick)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range comm.AllModels() {
				var pinned []mmu.Buffer
				twin := soc.New(cfg)
				pl, release, err := comm.Place(twin, w.Name, w, m)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range pl.Buffers {
					if b.Kind == mmu.Pinned {
						pinned = append(pinned, b)
					}
				}
				release()
				if len(pinned) == 0 {
					continue
				}
				s := soc.New(cfg)
				if _, err := m.Run(s, w); err != nil {
					t.Fatalf("%s/%s/%s: %v", cfg.Name, app, m.Name(), err)
				}
				llc := s.GPU.LLC()
				line := llc.Config().LineSize
				for _, b := range pinned {
					for addr := b.Addr &^ (line - 1); addr < b.End(); addr += line {
						checked++
						if llc.Contains(addr) {
							t.Errorf("%s/%s/%s: pinned buffer %s line %#x resident in the GPU LLC",
								cfg.Name, app, m.Name(), b.Name, addr)
						}
					}
				}
				resident += llc.ResidentLines()
			}
		}
	}
	if checked == 0 || resident == 0 {
		t.Fatalf("vacuous: %d pinned lines checked beside %d resident LLC lines", checked, resident)
	}
}
