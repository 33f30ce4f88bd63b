package main

import (
	"slices"
	"testing"

	"igpucomm/internal/apps/catalog"
)

// TestReportOrderCoversCatalog keeps the report's application order in step
// with the catalog: every catalogued application is verified, exactly once.
func TestReportOrderCoversCatalog(t *testing.T) {
	got := slices.Clone(reportOrder)
	slices.Sort(got)
	if want := catalog.Names(); !slices.Equal(got, want) {
		t.Fatalf("report order %v, catalog has %v", reportOrder, want)
	}
}
