package cache

// Stats collects the counters a profiling tool would expose for one cache
// level. All byte counts are line-granular (a partial-line demand access
// still moves a whole line, as in hardware).
type Stats struct {
	Reads      int64
	Writes     int64
	ReadHits   int64
	WriteHits  int64
	Evictions  int64
	Writebacks int64 // dirty evictions pushed to the lower level

	// Writeback traffic received from an upper level.
	WritebacksIn int64

	Flushes         int64
	FlushWritebacks int64
	Invalidates     int64

	// BytesIn counts all line fills + writeback-in traffic in bytes.
	BytesIn int64
}

func (s *Stats) count(kind Kind, lineSize int64) {
	switch kind {
	case Read:
		s.Reads++
	case Write:
		s.Writes++
	case Writeback:
		s.WritebacksIn++
	}
	s.BytesIn += lineSize
}

func (s *Stats) countHit(kind Kind) {
	switch kind {
	case Read:
		s.ReadHits++
	case Write:
		s.WriteHits++
	}
}

// Accesses is the total number of demand accesses (reads + writes).
func (s Stats) Accesses() int64 { return s.Reads + s.Writes }

// Hits is the total number of demand hits.
func (s Stats) Hits() int64 { return s.ReadHits + s.WriteHits }

// Misses is the total number of demand misses.
func (s Stats) Misses() int64 { return s.Accesses() - s.Hits() }

// HitRate is demand hits over demand accesses, 0 when idle.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(a)
}

// MissRate is 1 - HitRate for a non-idle cache, 0 when idle.
func (s Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(a)
}

// Add accumulates other into s (useful to merge per-SM L1 stats).
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.ReadHits += other.ReadHits
	s.WriteHits += other.WriteHits
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
	s.WritebacksIn += other.WritebacksIn
	s.Flushes += other.Flushes
	s.FlushWritebacks += other.FlushWritebacks
	s.Invalidates += other.Invalidates
	s.BytesIn += other.BytesIn
}
