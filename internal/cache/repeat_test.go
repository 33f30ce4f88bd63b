package cache

import (
	"reflect"
	"testing"

	"igpucomm/internal/heatmap"
)

// TestRepeatHitMatchesDo holds RepeatHit to its contract on every stream
// geometry: on twin caches warmed by one seeded stream, RepeatHit(a, n) on
// one and n Do(a) calls on the other, for an access a within a line the
// stream just touched, must leave identical stats, way state (every way's
// tag, lastUse and dirty bit, every set's fill and the victim each set
// would choose next), lower-level traffic and heat records, and return the
// latency each Do returned. The warming stream and a follow-up stream run
// between repeats, so a diverged LRU clock or dirty bit also shows up as
// diverged victims and writebacks later.
func TestRepeatHitMatchesDo(t *testing.T) {
	rng := xorshift(0x2545f4914f6cdd1d)
	for gi, cfg := range streamGeometries {
		newTwin := func() (*Cache, *sink, *heatmap.Accumulator) {
			mem := &sink{latency: 100}
			c := New(cfg, mem)
			h := heatmap.New(1<<15, 256)
			c.SetHeatSink(h)
			return c, mem, h
		}
		rep, repMem, repHeat := newTwin()
		ser, serMem, serHeat := newTwin()
		for round := 0; round < 200; round++ {
			for _, a := range genStream(&rng, int(rng.next()%24)+1) {
				rep.Do(a)
				ser.Do(a)
			}
			// An access within the line the stream's last access left
			// resident, at a random offset, size and kind.
			line := rng.next() % uint64(ser.setCount*int64(ser.ways))
			if ser.tags[line] == invalidTag {
				continue
			}
			lineAddr := (ser.tags[line]<<ser.setBits | int64(line)/int64(ser.ways)) << ser.offBits
			off := int64(rng.next() % uint64(cfg.LineSize))
			a := Access{Addr: lineAddr + off, Size: int64(rng.next()%uint64(cfg.LineSize-off)) + 1, Kind: Kind(rng.next() % 3)}
			n := int64(rng.next() % 20)
			got := rep.RepeatHit(a, n)
			for i := int64(0); i < n; i++ {
				if want := ser.Do(a); got != want {
					t.Fatalf("%s round %d: RepeatHit(%+v) returned %+v, Do %+v", cfg.Name, round, a, got, want)
				}
			}
			if !reflect.DeepEqual(rep.tags, ser.tags) || !reflect.DeepEqual(rep.lastUse, ser.lastUse) ||
				!reflect.DeepEqual(rep.dirty, ser.dirty) || !reflect.DeepEqual(rep.fill, ser.fill) || rep.useClock != ser.useClock {
				t.Fatalf("%s round %d: way state diverged after %d repeats of %+v", cfg.Name, round, n, a)
			}
			for set := int64(0); set < rep.setCount; set++ {
				base := set * int64(rep.ways)
				if rv, sv := rep.victim(set, base), ser.victim(set, base); rv != sv {
					t.Fatalf("%s round %d: set %d victim %d after RepeatHit, %d after Do", cfg.Name, round, set, rv, sv)
				}
			}
			if rep.Stats() != ser.Stats() {
				t.Fatalf("%s round %d: stats %+v after RepeatHit, %+v after Do", cfg.Name, round, rep.Stats(), ser.Stats())
			}
			if !reflect.DeepEqual(repMem.accesses, serMem.accesses) {
				t.Fatalf("%s round %d: lower-level traffic diverged", cfg.Name, round)
			}
			if !reflect.DeepEqual(repHeat, serHeat) {
				t.Fatalf("%s round %d: heat records diverged", cfg.Name, round)
			}
		}
		if st := ser.Stats(); st.Hits() == 0 || st.Writebacks == 0 {
			t.Fatalf("geometry %d: streams exercised no hits or no writebacks: %+v", gi, st)
		}
	}
}

// TestRepeatHitPanicsOffLine pins RepeatHit's precondition: the access must
// lie within one resident line.
func TestRepeatHitPanicsOffLine(t *testing.T) {
	c, _ := newTestCache(t, 1024, 64, 2)
	c.Do(Access{Addr: 0, Size: 64, Kind: Read})
	for name, a := range map[string]Access{
		"absent line":  {Addr: 4096, Size: 4, Kind: Read},
		"two lines":    {Addr: 60, Size: 8, Kind: Read},
		"empty access": {Addr: 0, Size: 0, Kind: Read},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RepeatHit accepted %+v", name, a)
				}
			}()
			c.RepeatHit(a, 3)
		}()
	}
}
