// Matrix subsets: the `slcbench -matrix new-codecs -json -store DIR`
// pipeline end-to-end, in library form. The walkthrough:
//
//  1. resolve the named subset to cells (experiments.MatrixCells — the
//     subset registry mirrors the codec registry, so `-matrix` names work
//     here verbatim),
//  2. attach a content-addressed result store, warm the cells across a
//     worker pool and collect them as a bench trajectory (Matrix.Evaluate,
//     the path every slcbench target takes; cold run: every cell is a
//     store miss and is computed),
//  3. emit the same JSON `slcbench -json` writes,
//  4. run the identical subset again on a fresh Runner sharing the store
//     (warm run: zero misses, nothing recomputed, identical trajectory).
//
// Run with: go run ./examples/matrix_subsets [-matrix new-codecs] [-store DIR]
//
// The default subset, new-codecs, covers the post-paper codec families
// (lz4b, zcd) over every workload plus one timed cell each; -matrix smoke
// reproduces exactly what CI records on every push. An empty -store uses a
// throwaway temp directory so the warm-run demonstration still works.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/resultstore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("matrix_subsets: ")
	var (
		name = flag.String("matrix", "new-codecs", "matrix subset to run (see slcbench -list-matrix)")
		dir  = flag.String("store", "", "result store directory (empty = a temp directory)")
	)
	flag.Parse()

	// 1. Resolve the subset by name. Unknown names fail with the available
	//    set, exactly like an unknown codec name.
	full, comp, err := experiments.MatrixCells(*name)
	if err != nil {
		log.Fatal(err)
	}
	m, _ := experiments.LookupMatrix(*name)
	fmt.Printf("subset %q: %s\n", *name, m.Desc)
	fmt.Printf("  %d full cells (timing + error), %d compression-only cells\n\n", len(full), len(comp))

	// 2. Attach a store and warm the cells across all cores.
	if *dir == "" {
		tmp, err := os.MkdirTemp("", "slc-matrix-example-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}
	traj := collect(m, *dir)

	// 3. The trajectory is the `slcbench -json` schema: cell results plus
	//    the store's hit/miss counters.
	if err := traj.WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "\ncold run: %d store hits, %d misses (everything computed once)\n",
		traj.Store.Hits, traj.Store.Misses)

	// 4. A fresh Runner over the same store recomputes nothing: every cell
	//    resolves as a disk hit and the result sections are bitwise
	//    identical (the Store counters are the only difference, which is
	//    why the Trajectory keeps them in a separate section).
	warm := collect(m, *dir)
	fmt.Fprintf(os.Stderr, "warm run: %d store hits, %d misses\n", warm.Store.Hits, warm.Store.Misses)
	if warm.Store.Misses != 0 {
		log.Fatal("warm run recomputed cells — the store should have served everything")
	}
}

// collect evaluates the subset on a fresh Runner attached to the store at
// dir, as `slcbench -matrix` does.
func collect(m experiments.Matrix, dir string) *experiments.Trajectory {
	r := experiments.NewRunner()
	st, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	r.Store = st
	traj, err := m.Evaluate(r, "matrix:"+m.Name, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	return traj
}
