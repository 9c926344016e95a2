package proc

import (
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/trap"
)

// Multi-processor execution. The paper's configuration is several
// processors sharing one core memory, each with its own descriptor base
// register and its own SDW associative memory: "Changing the absolute
// address in the DBR of a processor will cause the address translation
// logic to interpret two-part addresses relative to a different
// descriptor segment." RunParallel models that directly: N simulated
// processors, each a goroutine with a private cpu.CPU (private MMU,
// private SDW cache, private DBR), executing distinct processes against
// the shared word-atomic core.
//
// Coherence follows the discipline documented on package mmu: every
// processor's MMU joins one mmu.Group, so a descriptor edit through
// StoreSDW on one processor shoots the segment number down to all
// others, and a DBR swap at dispatch flushes only the dispatching
// processor's associative memory. The shared core itself (mem.Atomic)
// gives the mutex-free word-granular read path.

// ProcessorStats reports one simulated processor's work after
// RunParallel.
type ProcessorStats struct {
	// Processor is the processor's index, 0-based.
	Processor int
	// Processes is the number of processes the processor ran to
	// completion.
	Processes int
	// Steps and Cycles total the instructions executed and simulated
	// cycles charged on this processor.
	Steps  uint64
	Cycles uint64
	// Cache is the processor's own SDW associative memory counters,
	// including shootdowns applied from other processors.
	Cache mmu.CacheStats
}

// RunParallel executes every spawned process to completion on nproc
// concurrent simulated processors (nproc <= 1 means one). Each process
// runs on exactly one processor — the paper's model multiplexes
// processes over processors, it never splits one process across two —
// with at most limit instructions (limit <= 0 means no limit). Process
// fates are recorded on the Process structs exactly as Schedule records
// them; the returned slice reports per-processor statistics.
//
// The system must have been created with Config.Processors >= nproc so
// core is the word-atomic store; RunParallel refuses to race several
// processors over a plain memory.
func (s *System) RunParallel(nproc, limit int) ([]ProcessorStats, error) {
	if nproc <= 0 {
		nproc = 1
	}
	if _, atomic := s.Mem.(*mem.Atomic); nproc > 1 && !atomic {
		return nil, fmt.Errorf("proc: %d processors over non-atomic core; set Config.Processors", nproc)
	}

	// Feed processes to whichever processor is free.
	work := make(chan *Process, len(s.procs))
	for _, p := range s.procs {
		if !p.Done {
			work <- p
		}
	}
	close(work)

	group := mmu.NewGroup()
	stats := make([]ProcessorStats, nproc)
	errs := make([]error, nproc)
	var wg sync.WaitGroup
	for i := 0; i < nproc; i++ {
		c := cpu.New(s.Mem, s.cfg.cpuOptions())
		group.Join(c.MMU)
		wg.Add(1)
		go func(i int, c *cpu.CPU) {
			defer wg.Done()
			st := &stats[i]
			st.Processor = i
			for p := range work {
				if err := s.runOn(c, p, limit); err != nil {
					errs[i] = err
					break
				}
				st.Processes++
			}
			st.Steps = c.Steps()
			st.Cycles = c.Cycles
			st.Cache = c.MMU.CacheStats()
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// runOn runs one process to completion on processor c, recording its
// fate. The error return is a simulator integrity fault; architectural
// traps are recorded on the process. A process that exhausts the step
// limit is parked with Done still false — the caller's backstop fired.
func (s *System) runOn(c *cpu.CPU, p *Process, limit int) error {
	s.dispatch(c, p)
	before := c.Cycles
	reason, err := c.Run(limit)
	p.Slices++
	p.Cycles += c.Cycles - before
	if err != nil {
		if t, ok := err.(*trap.Trap); ok {
			p.Done = true
			p.Trap = t
			return nil
		}
		return err
	}
	switch reason {
	case cpu.StopHalt:
		p.Done = true
		p.Exited = p.Sup.Exited
		p.ExitCode = p.Sup.ExitCode
	case cpu.StopLimit:
		s.park(c, p) // unfinished; Done stays false
	}
	return nil
}
