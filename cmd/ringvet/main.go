// Command ringvet statically enforces the repo's hot-path and mutation
// invariants (see internal/analysis and DESIGN.md "Static
// invariants"). Run it from the module root over the packages to
// check:
//
//	go run ./cmd/ringvet ./...
//
// It exits 0 when the packages are clean, 2 after printing
// diagnostics, and 1 when they fail to load.
package main

import (
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Args[1:]))
}
