package exp

import (
	"fmt"

	"repro/internal/acl"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/image"
	"repro/internal/mem"
	"repro/internal/paging"
	"repro/internal/proc"
	"repro/internal/sup"
)

func init() {
	register("T7", "paging is transparent to access control", func(r *Result) error {
		p := CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: 50}
		run := func(backing mem.Store) (uint64, uint64, error) {
			prog, err := asm.Assemble(p.Source())
			if err != nil {
				return 0, 0, err
			}
			cfg := image.Config{}
			if backing != nil {
				cfg.Backing = backing
			} else {
				cfg.MemWords = 1 << 18
			}
			img, err := asm.BuildImage(cfg, prog)
			if err != nil {
				return 0, 0, err
			}
			sup.Attach(img, "bench")
			if err := img.Start(4, "main", 0); err != nil {
				return 0, 0, err
			}
			if _, err := img.CPU.Run(100000); err != nil {
				return 0, 0, err
			}
			return img.CPU.Cycles, img.CPU.Steps(), nil
		}
		flatCycles, flatSteps, err := run(nil)
		if err != nil {
			return err
		}
		space, err := paging.New(1<<18, 256)
		if err != nil {
			return err
		}
		pagedCycles, pagedSteps, err := run(space)
		if err != nil {
			return err
		}
		r.addf("workload: 50 cross-ring call/return round trips; identical image built")
		r.addf("on flat core and on a demand-paged space (256-word frames, scattered)")
		r.addf("")
		r.addf("%-16s %14s %14s", "storage", "instructions", "cycles")
		r.addf("%-16s %14d %14d", "flat core", flatSteps, flatCycles)
		r.addf("%-16s %14d %14d", "demand paged", pagedSteps, pagedCycles)
		r.addf("")
		if flatCycles != pagedCycles || flatSteps != pagedSteps {
			return fmt.Errorf("paging changed architectural behaviour")
		}
		r.addf("page faults: %d, resident pages: %d, frames scattered: %v",
			space.Faults, space.ResidentPages(), space.Scattered())
		r.addf("")
		r.addf("identical instruction and cycle counts: \"paging, if appropriately")
		r.addf("implemented, need not affect access control\"")
		return nil
	})

	register("T8", "processes share segments and protected subsystems", func(r *Result) error {
		s := proc.NewSystem(proc.Config{})
		prog, err := asm.Assemble(sup.GateSource + `
        .seg    counter
        .bracket 1,1,5
        .access rwe
        .gate   bump
bump:   eap5    *pr0|0
        spr6    pr5|0
        aos     total
        eap6    *pr5|0
        return  *pr6|0
        .entry  total
total:  .word   0

        .seg    user
        .bracket 4,4,4
        lia     5
        sta     pr6|2
loop:   stic    pr6|0,+1
        call    counter$bump
        lda     pr6|2
        aia     -1
        sta     pr6|2
        tnz     loop
        stic    pr6|0,+1
        call    sysgates$exit
`)
		if err != nil {
			return err
		}
		if err := s.AddProgram(prog, func(segName string) acl.List {
			if segName == "counter" {
				// Only alice and bob may use the subsystem.
				return acl.List{
					{User: "alice", Read: true, Write: true, Execute: true,
						Brackets: core.Brackets{R1: 1, R2: 1, R3: 5}},
					{User: "bob", Read: true, Write: true, Execute: true,
						Brackets: core.Brackets{R1: 1, R2: 1, R3: 5}},
				}
			}
			return nil
		}); err != nil {
			return err
		}
		pa, err := s.Spawn("A", "alice", "user", 4)
		if err != nil {
			return err
		}
		pb, err := s.Spawn("B", "bob", "user", 4)
		if err != nil {
			return err
		}
		pm, err := s.Spawn("M", "mallory", "user", 4)
		if err != nil {
			return err
		}
		if err := s.Schedule(25, 10000); err != nil {
			return err
		}
		totalOff := prog.Segment("counter").Symbols["total"]
		total, err := s.ReadWord("counter", totalOff)
		if err != nil {
			return err
		}
		r.addf("three processes, one shared gated subsystem (ring 1) counting calls")
		r.addf("")
		r.addf("%-10s %-10s %-22s %s", "process", "user", "outcome", "slices")
		for _, p := range []*proc.Process{pa, pb, pm} {
			outcome := "exited"
			if p.Trap != nil {
				outcome = p.Trap.Code.String()
			}
			r.addf("%-10s %-10s %-22s %d", p.Name, p.User, outcome, p.Slices)
		}
		r.addf("")
		r.addf("shared subsystem total: %d (both permitted processes' calls)", total.Int64())
		if total.Int64() != 10 {
			return fmt.Errorf("shared total = %d, want 10", total.Int64())
		}
		if pm.Trap == nil {
			return fmt.Errorf("mallory's process reached the subsystem")
		}
		r.addf("mallory's process faulted: the subsystem is absent from a virtual")
		r.addf("memory whose user fails its ACL — \"several processes may share the")
		r.addf("use of the same protected subsystem simultaneously\", but only with")
		r.addf("permission")
		return nil
	})
}

func init() {
	register("T10", "ablation: the SDW associative memory", func(r *Result) error {
		// The paper's validation-is-cheap argument rests on the SDW
		// being examined on every reference anyway; the associative
		// memory is what made that examination cheap on the real
		// hardware. Compare the same kernel with the cache off (every
		// reference reads the descriptor segment) and on.
		// Charge 2 cycles per descriptor-segment read in both
		// configurations, so the associative memory's saving is visible
		// in simulated time.
		p := CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: 200}
		optOff := cpu.DefaultOptions()
		optOff.Costs.SDWMiss = 2
		offCycles, _, err := p.RunHardware(&optOff)
		if err != nil {
			return err
		}
		// For the stats, run the cached variant with direct machine
		// access.
		opt := cpu.DefaultOptions()
		opt.SDWCache = true
		opt.Costs.SDWMiss = 2
		img, err := p.BuildHardware(&opt)
		if err != nil {
			return err
		}
		sup.Attach(img, "bench")
		if err := img.Start(4, "main", 0); err != nil {
			return err
		}
		if _, err := img.CPU.Run(100000); err != nil {
			return err
		}
		onCycles := img.CPU.Cycles
		stats := img.CPU.MMU.CacheStats()

		r.addf("workload: 200 cross-ring call/return round trips")
		r.addf("")
		r.addf("%-26s %12s", "configuration", "cycles")
		r.addf("%-26s %12d", "associative memory off", offCycles)
		r.addf("%-26s %12d", "associative memory on", onCycles)
		if onCycles >= offCycles {
			return fmt.Errorf("associative memory saved nothing: %d vs %d", onCycles, offCycles)
		}
		r.addf("")
		hitRate := stats.HitRate()
		r.addf("cache statistics: %d hits, %d misses (%.1f%% hit rate)",
			stats.Hits, stats.Misses, 100*hitRate)
		r.metric("cycles_cache_off", float64(offCycles))
		r.metric("cycles_cache_on", float64(onCycles))
		r.metric("cache_hit_rate", hitRate)
		if hitRate < 0.95 {
			return fmt.Errorf("hit rate %.2f suspiciously low for a loop kernel", hitRate)
		}
		r.addf("")
		r.addf("with the working set of a call loop (a handful of segments), nearly")
		r.addf("every SDW examination hits the associative registers — the hardware")
		r.addf("context in which per-reference ring validation costs almost nothing")
		return nil
	})
}
