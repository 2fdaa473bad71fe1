package main

import (
	"flag"
	"testing"

	"repro/internal/testutil"
)

// TestReadmeFlagTables: the README's flag tables and the registered flags
// name the same flags with the same defaults.
func TestReadmeFlagTables(t *testing.T) {
	testutil.CheckFlagTable(t, "../../README.md", "skalla-site", flag.CommandLine)
}
