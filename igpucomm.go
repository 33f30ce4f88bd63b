// Package igpucomm is a framework for optimizing CPU-iGPU communication on
// embedded unified-memory platforms — a full reproduction, on a simulated
// heterogeneous SoC substrate, of Lumpp, Patel & Bombieri, "A Framework for
// Optimizing CPU-iGPU Communication on Embedded Platforms" (DAC 2021).
//
// Given an application (a Workload: CPU task + GPU kernels + shared buffers)
// and a target platform (Jetson Nano, TX2 or AGX Xavier catalog entries, or
// a custom soc.Config), the framework
//
//  1. characterizes the device with three micro-benchmarks (peak GPU cache
//     throughput per communication model, the cache-usage thresholds where
//     zero-copy stops being viable, and the maximum overlap gain),
//  2. profiles the application's CPU and GPU cache usage, and
//  3. recommends the communication model — standard copy (SC), unified
//     memory (UM), or pinned zero-copy (ZC) — with an estimated speedup.
//
// Quick start:
//
//	s, _ := igpucomm.NewSoC(igpucomm.XavierName)
//	char, _ := igpucomm.Characterize(s, igpucomm.DefaultParams())
//	rec, _ := igpucomm.Advise(char, s, myWorkload, "sc")
//	fmt.Println(rec.Suggested, rec.SpeedupPercent())
//
// This package is a facade; the implementation lives in internal/ (substrate
// simulators, communication models, micro-benchmarks, the decision flow, the
// §III-C tiling pattern, and the paper's two case-study applications).
package igpucomm

import (
	"context"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/framework"
	"igpucomm/internal/hazard"
	"igpucomm/internal/microbench"
	"igpucomm/internal/profile"
	"igpucomm/internal/soc"
)

// Platform names of the built-in device catalog.
const (
	NanoName   = devices.NanoName
	TX2Name    = devices.TX2Name
	XavierName = devices.XavierName
)

// Re-exported core types.
type (
	// SoC is a simulated platform instance.
	SoC = soc.SoC
	// SoCConfig describes a platform (use the catalog or build your own).
	SoCConfig = soc.Config
	// Workload is one iteration of a CPU+GPU application.
	Workload = comm.Workload
	// BufferSpec names one shared buffer.
	BufferSpec = comm.BufferSpec
	// Layout maps buffer names to placements at run time.
	Layout = comm.Layout
	// Report is a measured run under one communication model.
	Report = comm.Report
	// Model is a communication model (SC, UM or ZC).
	Model = comm.Model
	// Params tunes the micro-benchmark scale.
	Params = microbench.Params
	// Characterization is a device's micro-benchmark summary.
	Characterization = framework.Characterization
	// Recommendation is the framework's verdict for an application.
	Recommendation = framework.Recommendation
	// Profile is a profiled run's counter summary.
	Profile = profile.Profile
)

// Communication models.
var (
	// StandardCopy is the explicit-copy model (Fig 1.c).
	StandardCopy Model = comm.SC{}
	// UnifiedMemory is the page-migration model (Fig 1.d).
	UnifiedMemory Model = comm.UM{}
	// ZeroCopy is the pinned shared-access model (Fig 1.a/b).
	ZeroCopy Model = comm.ZC{}
)

// Platforms lists the built-in catalog names.
func Platforms() []string {
	return []string{NanoName, TX2Name, XavierName}
}

// NewSoC instantiates a catalog platform by name.
func NewSoC(name string) (*SoC, error) { return devices.NewSoC(name) }

// PlatformConfig returns a catalog entry for inspection or modification.
func PlatformConfig(name string) (SoCConfig, error) { return devices.ByName(name) }

// DefaultParams is the standard micro-benchmark scale.
func DefaultParams() Params { return microbench.DefaultParams() }

// Characterize runs the paper's three micro-benchmarks on a platform.
func Characterize(s *SoC, p Params) (Characterization, error) {
	return framework.Characterize(context.Background(), s, p)
}

// Advise profiles the workload and runs the paper's Fig-2 decision flow:
// which communication model should this application use on this device, and
// what speedup would the switch buy?
func Advise(char Characterization, s *SoC, w Workload, currentModel string) (Recommendation, error) {
	return framework.AdviseWorkload(context.Background(), char, s, w, currentModel)
}

// Run executes the workload under a model and reports timings and traffic.
func Run(s *SoC, w Workload, m Model) (Report, error) { return m.Run(s, w) }

// HazardReport is a verification result (see Verify and CheckedRun).
type HazardReport = hazard.Report

// Verify statically checks a platform × workload × model combination —
// layout disjointness, §III-C schedule tile ownership and barrier ordering —
// without executing it. See also cmd/hazardcheck.
func Verify(s *SoC, w Workload, m Model) (HazardReport, error) {
	return comm.Verify(s, w, m)
}

// CheckedRun verifies the combination first, refuses to execute a refuted
// schedule, and attaches the verification report to the run's Report.
func CheckedRun(s *SoC, w Workload, m Model) (Report, error) {
	return comm.CheckedRun(context.Background(), s, w, m)
}

// Checked wraps a model so it verifies before every run:
//
//	rep, err := igpucomm.Run(s, w, igpucomm.Checked(igpucomm.ZeroCopy))
func Checked(m Model) Model { return comm.Checked{Inner: m} }

// CollectProfile profiles the workload under a model (nvprof-style counters).
func CollectProfile(s *SoC, w Workload, m Model) (Profile, error) {
	return profile.Collect(context.Background(), s, w, m)
}

// ModelByName resolves "sc", "um" or "zc".
func ModelByName(name string) (Model, error) { return comm.ByName(name) }

// CaseStudy builds one of the paper's evaluation applications by name
// ("shwfs", "orbslam", or the ADAS extension "lanedet") at evaluation scale.
func CaseStudy(name string) (Workload, error) { return catalog.ByName(name, catalog.Full) }

// Exploration is a measured ranking of models (see Explore).
type Exploration = framework.Exploration

// Explore measures the workload under every paper model and returns the
// ranking — the brute-force companion to Advise.
func Explore(s *SoC, w Workload) (Exploration, error) {
	return framework.Explore(s, w, nil)
}
