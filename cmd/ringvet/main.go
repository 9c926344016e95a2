// Command ringvet statically enforces the repo's hot-path and mutation
// invariants (see internal/analysis and DESIGN.md "Static
// invariants").
//
// Two ways to run it:
//
//	go build -o /tmp/ringvet ./cmd/ringvet
//	go vet -vettool=/tmp/ringvet ./...   # fact-driven, cached by cmd/go
//	/tmp/ringvet ./...                   # standalone, in-process
package main

import (
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Args[1:]))
}
