// Package storeflag wires the shared -store / -store-clear command-line
// flags of the cmd binaries to a content-addressed result store attached to
// an experiments.Runner, so all three tools expose identical persistence
// behaviour.
package storeflag

import (
	"flag"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/resultstore"
)

// Flags holds the registered flag values.
type Flags struct {
	dir   *string
	clear *bool
}

// RegisterOn adds -store and -store-clear to fs, a binary's own
// flag.FlagSet (the testable `run(args, ...)` pattern).
func RegisterOn(fs *flag.FlagSet) *Flags {
	return &Flags{
		dir: fs.String("store", "",
			"persist memoised results in this directory (content-addressed; empty = off)"),
		clear: fs.Bool("store-clear", false,
			"empty the -store directory before running"),
	}
}

// Open opens the store named by -store (if any) and clears it when
// -store-clear was given. It returns nil when persistence is off.
func (f *Flags) Open() (*resultstore.Store, error) {
	if *f.dir == "" {
		if *f.clear {
			return nil, fmt.Errorf("-store-clear needs -store")
		}
		return nil, nil
	}
	s, err := resultstore.Open(*f.dir, resultstore.Options{})
	if err != nil {
		return nil, err
	}
	if *f.clear {
		if err := s.Clear(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Attach opens the store (see Open) and attaches it to the runner. It
// returns the store (nil when persistence is off) for stats reporting.
func (f *Flags) Attach(r *experiments.Runner) (*resultstore.Store, error) {
	s, err := f.Open()
	if err != nil || s == nil {
		return nil, err
	}
	r.Store = s
	return s, nil
}
