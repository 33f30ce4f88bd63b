package gpu

// UseReference makes every Launcher launch on g run the per-access
// reference executor instead of the compiled path: the oracle the
// whole-run differentials in this package's external tests compare
// against.
func UseReference(g *GPU) { g.oracle = g.launchReference }
