// Command fsdmvet is the repository's invariant checker: a
// multichecker in the shape of go vet that runs the eight
// project-specific analyzers from internal/fsdmvet (cancelcheck,
// immutcheck, metriccheck, lockcheck, errwrapcheck, and the
// flow-sensitive leakcheck, escapecheck, blockcheck) over every
// package of the module. It exits 1 when any invariant is violated
// and 2 when the tree fails to load, so `make lint` (wired into
// `make check`) gates commits on the engine's concurrency,
// immutability, lifetime, and metrics contracts.
//
// Usage:
//
//	fsdmvet [-root dir] [-v] [import/path ...]    (default: every module package)
//
// -v prints a wall-time breakdown to stderr: the one shared
// load-and-typecheck phase, then each analyzer's accumulated run
// time. Findings print as file:line:col: analyzer: message. Suppress
// one deliberately with a same-line or preceding-line comment:
//
//	//fsdmvet:ignore <analyzer> <reason>
//
// The reason is required; malformed directives are themselves
// reported. See docs/STATIC_ANALYSIS.md for the analyzer catalog.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/fsdmvet"
)

func main() {
	root := flag.String("root", ".", "module root to analyze")
	verbose := flag.Bool("v", false, "print per-analyzer wall time to stderr")
	flag.Parse()
	n, timings, err := fsdmvet.RunSuiteTimed(*root, flag.Args(), os.Stdout)
	if *verbose {
		fmt.Fprintf(os.Stderr, "fsdmvet: load+typecheck %v\n", timings.Load.Round(time.Millisecond))
		for _, t := range timings.Analyzers {
			fmt.Fprintf(os.Stderr, "fsdmvet: %-12s %v\n", t.Analyzer, t.Elapsed.Round(time.Millisecond))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsdmvet:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "fsdmvet: %d finding(s)\n", n)
		os.Exit(1)
	}
}
