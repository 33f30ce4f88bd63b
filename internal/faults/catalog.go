package faults

// Catalog is the committed fault-point catalog: every point name compiled
// into the tree, sorted. The igpulint faultpoint analyzer holds the code to
// this list both ways — a Register site whose name is missing here fails
// the gate, and an entry here with no Register site is an orphan. Fault
// plans and the -faults flag grammar should only ever name points from this
// list.
var Catalog = []string{
	"advisord.fleet.export",
	"engine.cache.load",
	"engine.cache.store",
	"engine.characterize",
	"engine.explore",
	"framework.persist.load",
	"framework.persist.save",
	"hazard.trace.parse",
	"profile.collect",
	"soc.clone",
}
