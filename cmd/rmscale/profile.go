package main

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts the CPU profile -cpuprofile asks for and returns
// a stop function that ends it and writes the allocation profile
// -memprofile asks for. An empty path skips that profile. Read either
// with the toolchain's pprof, e.g.
//
//	go tool pprof -sample_index=alloc_objects rmscale mem.pprof
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeAllocProfile(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

// writeAllocProfile writes the allocation profile (every sample since
// the process started, with in-use figures as of a fresh GC) to path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
