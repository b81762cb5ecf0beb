// Package profileflag wires the shared -cpuprofile / -memprofile
// command-line flags of the cmd binaries to runtime/pprof, so every tool
// exposes the same profiling workflow (see the README's "Profiling"
// section):
//
//	slcbench -fig 2 -cpuprofile cpu.out
//	go tool pprof cpu.out
package profileflag

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the registered flag values and the open CPU-profile file.
type Flags struct {
	cpu     *string
	mem     *string
	cpuFile *os.File
}

// RegisterOn adds -cpuprofile and -memprofile to fs, a binary's own
// flag.FlagSet (the testable `run(args, ...)` pattern).
func RegisterOn(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "",
			"write a CPU profile to this file (view with `go tool pprof`)"),
		mem: fs.String("memprofile", "",
			"write a heap profile to this file on exit"),
	}
}

// Start begins CPU profiling when -cpuprofile was given. Callers must
// arrange for Stop to run before exit, or the profile is truncated.
func (f *Flags) Start() error {
	if *f.cpu == "" {
		return nil
	}
	file, err := os.Create(*f.cpu)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return err
	}
	f.cpuFile = file
	return nil
}

// Stop finishes the CPU profile (if one is running) and writes the heap
// profile named by -memprofile. The heap snapshot follows a forced GC so it
// reflects live objects, not garbage awaiting collection.
func (f *Flags) Stop() error {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := f.cpuFile.Close(); err != nil {
			return err
		}
		f.cpuFile = nil
	}
	if *f.mem == "" {
		return nil
	}
	file, err := os.Create(*f.mem)
	if err != nil {
		return err
	}
	defer file.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(file)
}
