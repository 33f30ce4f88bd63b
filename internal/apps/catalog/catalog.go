// Package catalog is the registry of the paper's case-study applications,
// keyed by the names the CLIs and the advisory service accept. It exists so
// cmd/advisor, cmd/advisord and the test suites resolve "shwfs" to the same
// workload construction instead of each carrying its own switch.
//
// Building a workload can be expensive — orbslam runs the functional ORB
// front-end over a synthetic frame to place its keypoints — so each
// (name, scale) is built at most once per process and served from a memo
// afterwards.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"igpucomm/internal/apps/lanedet"
	"igpucomm/internal/apps/orbslam"
	"igpucomm/internal/apps/shwfs"
	"igpucomm/internal/comm"
)

// Scale selects the workload size.
type Scale int

// Workload scales.
const (
	// Full is the paper-scale configuration (each app's
	// DefaultWorkloadParams).
	Full Scale = iota
	// Quick is a reduced configuration with the same structure — the same
	// buffers, launch schedule and access patterns at a fraction of the
	// footprint — for tests, benchmarks and -quick CLI runs.
	Quick
	// Micro is the smallest configuration that still exercises every
	// structural element (all buffers, at least one launch per kernel,
	// both reduce and per-pixel phases). Its absolute numbers are
	// meaningless; it exists for harnesses that need thousands of advisory
	// calls per second — the deterministic simulation tests sweep hundreds
	// of seeded fleet scenarios and pay the workload simulation on every
	// step.
	Micro
)

var builders = map[string]func(Scale) (comm.Workload, error){
	"shwfs": func(sc Scale) (comm.Workload, error) {
		p := shwfs.DefaultWorkloadParams()
		switch sc {
		case Quick:
			p.Config = shwfs.Config{SubapsX: 8, SubapsY: 8, SubapPx: 8, Threshold: 10}
			p.Launches = 2
			p.PerPixelOps = 50
			p.ReduceSteps = 4
		case Micro:
			p.Config = shwfs.Config{SubapsX: 2, SubapsY: 2, SubapPx: 4, Threshold: 10}
			p.Launches = 1
			p.PerPixelOps = 4
			p.ReduceSteps = 1
		}
		return shwfs.Workload(p)
	},
	"orbslam": func(sc Scale) (comm.Workload, error) {
		p := orbslam.DefaultWorkloadParams()
		switch sc {
		case Quick:
			p.FrameW, p.FrameH = 160, 120
			p.Frontend.Levels = 3
			p.Frontend.MaxPerLevel = 32
			p.PerPixelOps = 16
			p.DescLoads = 8
			p.DescOps = 20
			p.MatchComparisons = 5000
		case Micro:
			// 64x64 is the smallest frame orbslam accepts; with the
			// default 16-pixel border only level 0 is usable, so one
			// level gives one detect and one describe launch.
			p.FrameW, p.FrameH = 64, 64
			p.Frontend.Levels = 1
			p.Frontend.MaxPerLevel = 8
			p.PerPixelOps = 2
			p.DescLoads = 2
			p.DescOps = 4
			p.MatchComparisons = 100
		}
		return orbslam.Workload(p)
	},
	"lanedet": func(sc Scale) (comm.Workload, error) {
		p := lanedet.DefaultWorkloadParams()
		switch sc {
		case Quick:
			p.FrameW, p.FrameH = 96, 64
			p.SobelOps = 6
			p.VoteOps = 2
			p.TrackOps = 2
		case Micro:
			p.FrameW, p.FrameH = 32, 32 // lanedet's minimum frame
			p.SobelOps = 1
			p.VoteOps = 1
			p.TrackOps = 1
		}
		return lanedet.Workload(p)
	},
}

// Names lists the catalogued application names, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// memoKey names one memoized build.
type memoKey struct {
	name  string
	scale Scale
}

// memoTable holds one build per (name, scale). Entries are created up
// front — the key space is the catalog times the three scales — so a lookup
// takes no lock, and each entry's sync.OnceValues makes concurrent first
// callers share a single build. Builds are deterministic, so a memoized
// error is the error a rebuild would return.
type memoTable map[memoKey]func() (comm.Workload, error)

func newMemo(bs map[string]func(Scale) (comm.Workload, error)) memoTable {
	m := make(memoTable, len(bs)*3)
	for name, b := range bs {
		for _, sc := range []Scale{Full, Quick, Micro} {
			m[memoKey{name, sc}] = sync.OnceValues(func() (comm.Workload, error) { return b(sc) })
		}
	}
	return m
}

var memo = newMemo(builders)

// ByName returns the named application's workload at the given scale. The
// workload is built once per process per (name, scale); later calls return
// the memoized build. The In, Out and Scratch slices of the result are the
// caller's own, so editing a BufferSpec cannot reach other callers. The
// task and kernel closures are shared and read-only.
func ByName(name string, sc Scale) (comm.Workload, error) {
	if _, ok := builders[name]; !ok {
		return comm.Workload{}, fmt.Errorf("catalog: unknown application %q (have %v)", name, Names())
	}
	return memo.lookup(name, sc)
}

// lookup returns the memoized build of (name, scale) with fresh buffer
// slices, building it on first use.
func (m memoTable) lookup(name string, sc Scale) (comm.Workload, error) {
	build, ok := m[memoKey{name, sc}]
	if !ok {
		return comm.Workload{}, fmt.Errorf("catalog: unknown scale %d", sc)
	}
	w, err := build()
	if err != nil {
		return comm.Workload{}, err
	}
	w.In = slices.Clone(w.In)
	w.Out = slices.Clone(w.Out)
	w.Scratch = slices.Clone(w.Scratch)
	return w, nil
}
